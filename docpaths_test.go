package localbp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocRepoPaths: every repository path the top-level documents name in
// backticks exists. A path-like token is one without spaces that starts with
// a top-level source directory or ends in .go, .md or .json; it resolves if
// it equals, or is a path suffix of, a file or directory in the tree (so
// DESIGN's `core/core.go` names internal/core/core.go).
func TestDocRepoPaths(t *testing.T) {
	var tree []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// Skip .git and the ignored build and results directories, so only
		// the source tree can resolve a path.
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == "results") {
			return filepath.SkipDir
		}
		tree = append(tree, filepath.ToSlash(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(tok string) bool {
		tok = strings.TrimSuffix(tok, "/")
		for _, p := range tree {
			if p == tok || strings.HasSuffix(p, "/"+tok) {
				return true
			}
		}
		return false
	}
	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`([^`]+)`")
	pathLike := regexp.MustCompile(`^(internal|cmd|examples|perfbench|testdata)/|\.(go|md|json)$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(data), "")
		for _, m := range span.FindAllStringSubmatch(text, -1) {
			tok := m[1]
			if strings.ContainsAny(tok, " \t\n") || !pathLike.MatchString(tok) {
				continue
			}
			if !exists(tok) {
				t.Errorf("%s names `%s`, which is not in the tree", doc, tok)
			}
		}
	}
}
