package schemes

import "testing"

// TestEveryNameBuilds: a name of each of the grammar's forms builds its
// scheme (none for a TAGE-only baseline), only oracle-local is flagged
// oracle, and an unknown name is an error.
func TestEveryNameBuilds(t *testing.T) {
	for _, name := range []string{
		"tage", "tage9", "tage57", "oracle-local", "perfect", "perfect-CBPw-Loop64",
		"no-repair", "retire-update", "snapshot", "snapshot-64-64-64", "backward",
		"backward-16-4-4", "forward", "forward-coalesce", "forward-64-8-4",
		"multistage", "multistage-split-pt", "limited-2pc", "limited-4pc-invalidate",
		"tage57-limited-4pc", "yehpatt-none", "yehpatt-forward", "yehpatt-perfect",
	} {
		s, d, err := Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Oracle != (name == "oracle-local") {
			t.Fatalf("%s: oracle=%v", name, d.Oracle)
		}
		tageOnly := name == "tage" || name == "tage9" || name == "tage57"
		if tageOnly != (s == nil) {
			t.Fatalf("%s: built scheme %v", name, s)
		}
		if s != nil && s.Name() == "" {
			t.Fatalf("%s built an unnamed scheme", name)
		}
	}
	if _, _, err := Build("forward-walk"); err == nil {
		t.Fatal("unknown name built")
	}
}
