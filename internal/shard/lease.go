package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"localbp/internal/service"
)

// Each shard has one append-only lease journal, framed with the LBPJRNL1
// discipline (service.EncodeFrame): every record is a self-verifying line, a
// torn append costs at most itself, and readers stop at the first damaged
// frame. The journal is the shard's ownership history:
//
//	acquire(epoch) → renew(epoch)* → release(epoch)   clean completion
//	acquire(epoch) → renew(epoch)* → [silence > TTL] → expire(epoch)
//	  → acquire(epoch+1) → ...                        crash + reassignment
//
// The epoch is the fencing token. Every acquire bumps it; a worker re-reads
// the journal on each renewal and abandons the shard the moment it sees a
// higher epoch (or an expire of its own), so a paused-then-resumed zombie
// can never fight its replacement. Appends are whole-frame single writes to
// an O_APPEND file: concurrent writers interleave at frame granularity,
// which the reader handles by folding records in epoch order.
const leaseMagic = "LBPJRNL1"

// Lease ops, in lifecycle order.
const (
	opAcquire = "acquire"
	opRenew   = "renew"
	opRelease = "release"
	opExpire  = "expire"
)

// leaseRecord is one journal entry.
type leaseRecord struct {
	Op    string    `json:"op"`
	Shard int       `json:"shard"`
	Of    int       `json:"of"`
	Owner string    `json:"owner,omitempty"`
	Epoch uint64    `json:"epoch"`
	Time  time.Time `json:"time"`
}

// ErrLeaseHeld is returned by Acquire when another worker holds a fresh
// lease on the shard.
var ErrLeaseHeld = errors.New("shard: lease held by another worker")

// ErrLeaseLost is returned by Renew when the lease has been fenced off: the
// coordinator expired it (the worker stopped heartbeating long enough) or a
// successor acquired a higher epoch. The only correct reaction is to stop
// working on the shard immediately — the checkpoint protocol makes already
// completed experiments durable, and the successor resumes from them.
var ErrLeaseLost = errors.New("shard: lease lost (expired or superseded)")

// LeaseState is the digest of one shard's journal: the highest epoch seen
// and the latest record within it. The zero value means "never held".
type LeaseState struct {
	Epoch uint64
	Op    string // last op at Epoch; "" when the journal is empty
	Owner string
	Time  time.Time // time of the last record at Epoch
}

// Held reports whether the lease is live: the current epoch's last op keeps
// ownership (acquire/renew) and the record is fresher than ttl.
func (s LeaseState) Held(now time.Time, ttl time.Duration) bool {
	return (s.Op == opAcquire || s.Op == opRenew) && now.Sub(s.Time) < ttl
}

// ReadLease digests shard k-of-n's journal in dir. A missing journal is the
// zero state. Torn tails and interleaved zombie records are tolerated: only
// intact frames count, and records fold in epoch order so a stale writer's
// interleaved renewals can never resurrect a fenced epoch.
func ReadLease(dir string, k, n int) (LeaseState, error) {
	var st LeaseState
	data, err := os.ReadFile(LeasePath(dir, k, n))
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("shard %d/%d lease: %w", k, n, err)
	}
	frames, _ := service.DecodeFrames(leaseMagic, data)
	for _, fr := range frames {
		var rec leaseRecord
		if err := json.Unmarshal(fr.Payload, &rec); err != nil {
			continue // foreign or damaged payload in an intact frame: skip
		}
		switch {
		case rec.Epoch > st.Epoch,
			rec.Epoch == st.Epoch && st.Op == "":
			st = LeaseState{Epoch: rec.Epoch, Op: rec.Op, Owner: rec.Owner, Time: rec.Time}
		case rec.Epoch == st.Epoch:
			// Same epoch: expire and release are terminal and win over any
			// interleaved renewals a zombie manages to append afterwards.
			if st.Op != opExpire && st.Op != opRelease {
				st.Op, st.Time = rec.Op, rec.Time
				if rec.Owner != "" {
					st.Owner = rec.Owner
				}
			}
		}
	}
	return st, nil
}

// appendLease frames and appends one record, fsynced so a record that was
// reported written survives a crash.
func appendLease(dir string, rec leaseRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("shard %d/%d lease: %w", rec.Shard, rec.Of, err)
	}
	path := LeasePath(dir, rec.Shard, rec.Of)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("shard %d/%d lease: %w", rec.Shard, rec.Of, err)
	}
	defer f.Close()
	if _, err := f.Write(service.EncodeFrame(leaseMagic, payload)); err != nil {
		return fmt.Errorf("shard %d/%d lease: %w", rec.Shard, rec.Of, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("shard %d/%d lease: fsync: %w", rec.Shard, rec.Of, err)
	}
	return nil
}

// Lease is a worker's hold on one shard.
type Lease struct {
	dir      string
	shard, n int
	owner    string
	ttl      time.Duration
	epoch    uint64
}

// Epoch returns the lease's fencing token.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Acquire claims shard k-of-n for owner. A fresh lease held by someone else
// returns ErrLeaseHeld; a stale one (its holder stopped heartbeating for at
// least ttl) is taken over by bumping the epoch — the previous holder is
// fenced off and discovers it on its next renewal. Acquire also truncates a
// torn journal tail: at takeover time no live writer can exist (a live one
// would have kept the lease fresh), so scrubbing the tail is safe and keeps
// later appends on a clean frame boundary.
func Acquire(dir string, k, n int, owner string, ttl time.Duration) (*Lease, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard %d/%d lease: %w", k, n, err)
	}
	path := LeasePath(dir, k, n)
	if data, err := os.ReadFile(path); err == nil {
		if _, valid := service.DecodeFrames(leaseMagic, data); valid < int64(len(data)) {
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("shard %d/%d lease: truncating torn tail: %w", k, n, err)
			}
		}
	}
	st, err := ReadLease(dir, k, n)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	if st.Held(now, ttl) {
		return nil, fmt.Errorf("shard %d/%d held by %s (last heartbeat %s ago, ttl %s): %w",
			k, n, st.Owner, now.Sub(st.Time).Round(time.Millisecond), ttl, ErrLeaseHeld)
	}
	l := &Lease{dir: dir, shard: k, n: n, owner: owner, ttl: ttl, epoch: st.Epoch + 1}
	if err := appendLease(dir, leaseRecord{
		Op: opAcquire, Shard: k, Of: n, Owner: owner, Epoch: l.epoch, Time: now,
	}); err != nil {
		return nil, err
	}
	return l, nil
}

// Renew re-reads the journal (the fencing check) and appends a heartbeat.
// ErrLeaseLost means a coordinator expired this epoch or a successor
// acquired a higher one; the worker must stop at once.
func (l *Lease) Renew() error {
	st, err := ReadLease(l.dir, l.shard, l.n)
	if err != nil {
		return err
	}
	if st.Epoch > l.epoch || (st.Epoch == l.epoch && (st.Op == opExpire || st.Op == opRelease)) {
		return fmt.Errorf("shard %d/%d epoch %d fenced by %s@%d: %w",
			l.shard, l.n, l.epoch, st.Op, st.Epoch, ErrLeaseLost)
	}
	return appendLease(l.dir, leaseRecord{
		Op: opRenew, Shard: l.shard, Of: l.n, Owner: l.owner, Epoch: l.epoch, Time: time.Now(),
	})
}

// Release ends the lease cleanly (the shard's work is done or abandoned in
// an orderly way).
func (l *Lease) Release() error {
	return appendLease(l.dir, leaseRecord{
		Op: opRelease, Shard: l.shard, Of: l.n, Owner: l.owner, Epoch: l.epoch, Time: time.Now(),
	})
}

// Heartbeat renews the lease every interval until ctx is done. The first
// renewal failure invokes onLost exactly once and ends the loop — transient
// I/O errors are retried at the next tick, but a fencing loss (ErrLeaseLost)
// is final. Run it in its own goroutine alongside the shard's work.
func (l *Lease) Heartbeat(ctx context.Context, interval time.Duration, onLost func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := l.Renew(); err != nil {
				if errors.Is(err, ErrLeaseLost) {
					onLost(err)
					return
				}
				// I/O hiccup: keep heartbeating; the lease only dies if the
				// silence outlasts the TTL.
				continue
			}
		}
	}
}

// Expire fences off shard k-of-n's current epoch after observing staleness.
// This is the coordinator's half of failure detection: it must only be
// called once the lease is stale (Held == false), and it makes the
// staleness durable so every future reader agrees the epoch is dead before
// a successor acquires epoch+1.
func Expire(dir string, k, n int) error {
	st, err := ReadLease(dir, k, n)
	if err != nil {
		return err
	}
	if st.Op == "" || st.Op == opExpire || st.Op == opRelease {
		return nil // nothing live to fence
	}
	return appendLease(dir, leaseRecord{
		Op: opExpire, Shard: k, Of: n, Epoch: st.Epoch, Time: time.Now(),
	})
}

// RemoveJournal deletes shard k-of-n's lease journal (test hygiene and
// explicit operator resets; normal operation never removes history).
func RemoveJournal(dir string, k, n int) error {
	err := os.Remove(LeasePath(dir, k, n))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Owner builds the canonical owner identity for lease records:
// host:pid, unambiguous across the machines a sharded sweep spans.
func Owner() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s:%d", filepath.Base(host), os.Getpid())
}
