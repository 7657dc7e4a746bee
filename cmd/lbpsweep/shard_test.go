package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"localbp/internal/shard"
)

// runSweepOK runs the built binary with args, failing the test on a non-zero
// exit, and returns stdout.
func runSweepOK(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var out, errs strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errs
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", bin, strings.Join(args, " "), err, out.String(), errs.String())
	}
	return out.String()
}

// TestShardSweepChaosKillBitIdentical is the tentpole acceptance test: a
// sharded quick sweep whose busiest worker is SIGKILLed mid-shard must have
// that shard reassigned after lease expiry and still complete with zero lost
// and zero duplicated results — the merged canonical output is bit-identical
// to a single-process sweep of the same experiments. This is also the body
// of `make shard-smoke`.
func TestShardSweepChaosKillBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	lease := filepath.Join(dir, "fleet")
	ids := []string{"table1", "table2", "fig4", "fig7a", "fig8", "fig9", "fig10", "ext1"}
	const n = 3

	// Kill the shard owning the most experiments: the chaos SIGKILL lands
	// after its first checkpoint flush with work still pending, so the
	// successor provably resumes a partial shard rather than replaying a
	// finished one.
	victim, best := 0, -1
	for k := 0; k < n; k++ {
		if c := len(shard.Assigned(ids, k, n)); c > best {
			victim, best = k, c
		}
	}
	if best < 2 {
		t.Fatalf("victim shard owns %d experiments; want >= 2 for a meaningful resume", best)
	}

	common := []string{"-quick", "-insts", "12000", "-workers", "2"}
	coord := append([]string{
		"-shards", fmt.Sprint(n), "-lease-dir", lease,
		"-lease-ttl", "1s", "-lease-heartbeat", "100ms",
		"-chaos-kill", fmt.Sprint(victim),
	}, common...)
	coord = append(coord, ids...)

	var out, errs strings.Builder
	cmd := exec.Command(bin, coord...)
	cmd.Stdout, cmd.Stderr = &out, &errs
	if err := cmd.Run(); err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, errs.String())
	}
	for _, want := range []string{
		"chaos: SIGKILLing worker mid-shard", // the fault landed
		"reassigning",                        // lease expired, shard handed over
		"ok: 3/3 shards ok",                  // every shard still completed
	} {
		if !strings.Contains(errs.String(), want) {
			t.Fatalf("coordinator stderr lacks %q:\n%s", want, errs.String())
		}
	}

	merged := runSweepOK(t, bin,
		append([]string{"-merge", "-shards", fmt.Sprint(n), "-lease-dir", lease}, ids...)...)

	// Differential gate: a single-process sweep of the same experiments,
	// rendered the same canonical way, must be bit-identical.
	single := filepath.Join(dir, "single.ckpt")
	runSweepOK(t, bin, append(append([]string{"-checkpoint", single}, common...), ids...)...)
	ref := runSweepOK(t, bin, append([]string{"-merge", "-checkpoint", single}, ids...)...)
	if merged != ref {
		t.Fatalf("merged shard output diverges from the single-process sweep\nmerged:\n%s\nsingle:\n%s", merged, ref)
	}

	// Exactly-once, spelled out: every experiment's banner appears once.
	for _, id := range ids {
		if c := strings.Count(merged, "== "+id+" "); c != 1 {
			t.Fatalf("experiment %s appears %d times in the merged output, want 1", id, c)
		}
	}
}

// TestShardFleetCoordinatorCrash kills the COORDINATOR of a sharded sweep —
// the complement of TestShardSweepChaosKillBitIdentical. Its workers are
// orphaned mid-shard but keep heartbeating their leases; a second
// coordinator started on the same lease directory must coexist with them
// (its own spawns are refused by the live leases and retried after release),
// drive every shard to completion, and the merged output must cover every
// experiment exactly once. No fleet state lives in the coordinator process —
// everything is in the lease journals and shard checkpoints.
func TestShardFleetCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	lease := filepath.Join(dir, "fleet")
	ids := []string{"table1", "table2", "fig4", "fig7a", "fig8", "fig9", "fig10", "ext1"}

	coordArgs := append([]string{
		"-shards", "3", "-lease-dir", lease,
		"-lease-ttl", "1s", "-lease-heartbeat", "100ms",
		"-quick", "-insts", "12000", "-workers", "2",
	}, ids...)

	var out1, err1 strings.Builder
	first := exec.Command(bin, coordArgs...)
	first.Stdout, first.Stderr = &out1, &err1
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the fleet is observably mid-sweep (a shard checkpoint has
	// been flushed), then SIGKILL the coordinator.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(lease, "shard-*.ckpt")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			t.Fatalf("no shard checkpoint ever appeared\nstderr:\n%s", err1.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	// The replacement coordinator inherits a directory with live orphan
	// workers still leasing shards. It must finish the sweep anyway.
	var out2, err2 strings.Builder
	second := exec.Command(bin, coordArgs...)
	second.Stdout, second.Stderr = &out2, &err2
	if err := second.Run(); err != nil {
		t.Fatalf("replacement coordinator failed: %v\nstderr:\n%s", err, err2.String())
	}
	if !strings.Contains(err2.String(), "3/3 shards ok") {
		t.Fatalf("replacement coordinator did not complete the fleet:\n%s", err2.String())
	}

	// The merge integrity gate is the arbiter: every experiment exactly
	// once, option stamps agreeing, CRCs intact — despite two coordinator
	// generations and orphaned workers sharing the directory.
	var merged strings.Builder
	mergeCmd := exec.Command(bin, append([]string{"-merge", "-shards", "3", "-lease-dir", lease}, ids...)...)
	mergeCmd.Stdout = &merged
	var mergeErrs strings.Builder
	mergeCmd.Stderr = &mergeErrs
	if err := mergeCmd.Run(); err != nil {
		t.Fatalf("merge after coordinator crash: %v\n%s", err, mergeErrs.String())
	}
	for _, id := range ids {
		if c := strings.Count(merged.String(), "== "+id+" "); c != 1 {
			t.Fatalf("experiment %s appears %d times in the merged output, want 1", id, c)
		}
	}

	// Every lease journal must be terminally released — no shard left
	// half-owned for the next fleet on this directory.
	for k := 0; k < 3; k++ {
		st, err := shard.ReadLease(lease, k, 3)
		if err != nil {
			t.Fatalf("shard %d lease unreadable: %v", k, err)
		}
		if st.Held(time.Now(), time.Minute) {
			t.Fatalf("shard %d lease still held after the fleet completed: %+v", k, st)
		}
	}
}

// TestShardWorkerLeaseHeld: a worker refused by a live lease exits 4
// (resumable), so a supervising coordinator classifies it transient and
// retries after the incumbent expires — never two workers on one shard.
func TestShardWorkerLeaseHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildSweep(t)
	dir := t.TempDir()
	if _, err := shard.Acquire(dir, 0, 2, "incumbent", time.Minute); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-shard", "0/2", "-lease-dir", dir, "-quick", "-insts", "5000", "table1")
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 4 {
		t.Fatalf("worker against a held lease exited %d, want 4\n%s", code, out)
	}
	if !strings.Contains(string(out), "lease") {
		t.Fatalf("worker did not explain the refusal:\n%s", out)
	}
}

// TestSweepDeadlineExit4: -deadline bounds the whole invocation's wall
// clock; on expiry the sweep exits 4 like SIGINT, with completed work
// checkpointed for resume.
func TestSweepDeadlineExit4(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildSweep(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	// The full suite at this budget runs for minutes; the deadline cuts it
	// off in under a second.
	cmd := exec.Command(bin, "-insts", "300000", "-deadline", "500ms", "-checkpoint", ckpt)
	out, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 4 {
		t.Fatalf("deadline-bounded sweep exited %d, want 4\n%s", code, out)
	}
	if !strings.Contains(string(out), "interrupted") {
		t.Fatalf("deadline expiry not reported as interruption:\n%s", out)
	}
}
