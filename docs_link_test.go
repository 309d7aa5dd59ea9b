package adhocroute_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	matches, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, matches...)
}

// TestDocLinks fails on broken intra-repo links in README.md and
// docs/*.md: every relative link target must exist on disk, resolved
// against the linking file's directory. External links (http/https) and
// pure anchors are skipped — this pins the repo's own structure, not the
// internet. CI runs this as the docs job.
func TestDocLinks(t *testing.T) {
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			// Strip an in-file anchor: a #section suffix checks the file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no intra-repo links found — the matcher or the docs tree is broken")
	}
	t.Logf("checked %d intra-repo links", checked)
}

// TestDocsReferencedFilesExist pins the repo files the prose leans on by
// mention rather than by link, so a doc rot (renamed artifact) fails fast:
// the benchmark records and the change log the docs name in backticks, and
// every markdown document a Go file names, which must exist at the repo
// root or under docs/. The files cmd/experiments writes into its results
// directory (ALL.md and one per experiment ID) are outputs, not documents.
func TestDocsReferencedFilesExist(t *testing.T) {
	benchRef := regexp.MustCompile("`(BENCH_PR[0-9]+\\.json|CHANGES\\.md|ROADMAP\\.md|PAPER\\.md)`")
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchRef.FindAllStringSubmatch(string(data), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s mentions %s which does not exist", file, m[1])
			}
		}
	}

	// Documents have all-caps names; experiment outputs carry a digit.
	goRef := regexp.MustCompile(`\b[A-Z][A-Z_]*\.md\b`)
	outputs := map[string]bool{"ALL.md": true}
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and the benchmark's build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range goRef.FindAllString(string(data), -1) {
			if outputs[name] {
				continue
			}
			checked++
			_, atRoot := os.Stat(name)
			_, inDocs := os.Stat(filepath.Join("docs", name))
			if atRoot != nil && inDocs != nil {
				t.Errorf("%s mentions %s, which is neither at the repo root nor under docs/", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown mentions found in Go files — the matcher or the walk is broken")
	}
}
