package dlm_test

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// quotingDocs are the documents whose measured numbers must come from
// committed files.
var quotingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// fence is one fenced code block of a Markdown document.
type fence struct {
	line  int    // 1-based line of the opening fence
	tag   string // first word of the info string
	lines []string
}

// fences returns the document's fenced code blocks. A fence opens on a
// line whose first non-blank characters are ``` and closes on the next
// line that is ``` alone; the lines between are kept verbatim.
func fences(doc string) ([]fence, error) {
	var out []fence
	var open *fence
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case open == nil && strings.HasPrefix(trimmed, "```"):
			tag, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(trimmed, "```")), " ")
			open = &fence{line: i + 1, tag: tag}
		case open != nil && trimmed == "```":
			out = append(out, *open)
			open = nil
		case open != nil:
			open.lines = append(open.lines, line)
		}
	}
	if open != nil {
		return nil, fmt.Errorf("line %d: fence never closed", open.line)
	}
	return out, nil
}

// checkQuote holds a block tagged with a path to that path's file: the
// path must lie under results/, and the block must be a non-empty,
// contiguous run of the file's lines, character for character. Blocks
// whose tag names no path (sh, go, none) are not quotes.
func checkQuote(fsys fs.FS, f fence) error {
	if !strings.Contains(f.tag, "/") {
		return nil
	}
	if path.Clean(f.tag) != f.tag || !strings.HasPrefix(f.tag, "results/") {
		return fmt.Errorf("block tagged %q: a quoted file must be a path under results/", f.tag)
	}
	data, err := fs.ReadFile(fsys, f.tag)
	if err != nil {
		return fmt.Errorf("block tagged %s: %v", f.tag, err)
	}
	file := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; len(f.lines) > 0 && i+len(f.lines) <= len(file); i++ {
		if slices.Equal(file[i:i+len(f.lines)], f.lines) {
			return nil
		}
	}
	return fmt.Errorf("block tagged %s is not a contiguous run of that file's lines; copy it from the file again", f.tag)
}

// TestQuotedResultsMatchFiles is the documents' staleness gate: every
// fenced block tagged with a results/ path in README, DESIGN and
// EXPERIMENTS must be a verbatim excerpt of that file. A regeneration that
// moves a number fails here until the quote is copied again, and a quote
// edited by hand fails at once. (The figures have no text file; their
// note: lines are held to EXPERIMENTS.md by TestGoldenFigures.)
func TestQuotedResultsMatchFiles(t *testing.T) {
	root := os.DirFS(".")
	quotes := 0
	for _, doc := range quotingDocs {
		src, err := fs.ReadFile(root, doc)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := fences(string(src))
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, b := range blocks {
			if err := checkQuote(root, b); err != nil {
				t.Errorf("%s:%d: %v", doc, b.line, err)
			}
			if strings.Contains(b.tag, "/") {
				quotes++
			}
		}
	}
	if quotes == 0 {
		t.Error("no results/ quote found: the gate checks nothing")
	}
}

// TestQuoteGateRejects feeds the gate the edits it exists to catch.
func TestQuoteGateRejects(t *testing.T) {
	fsys := fstest.MapFS{
		"results/t.txt": {Data: []byte("header  a  b\nrow1    1  2.50\nrow2    3  4.75\nrow3    5  6.00\n")},
		"bench/t.txt":   {Data: []byte("row1    1  2.50\n")},
		"go.mod":        {Data: []byte("module dlm\n")},
	}
	cases := []struct {
		name, doc string
		ok        bool
	}{
		{"verbatim run", "```results/t.txt\nrow1    1  2.50\nrow2    3  4.75\n```\n", true},
		{"whole file", "```results/t.txt\nheader  a  b\nrow1    1  2.50\nrow2    3  4.75\nrow3    5  6.00\n```\n", true},
		{"not a quote", "```sh\nanything 1.23\n```\n", true},
		{"one digit edited", "```results/t.txt\nrow1    1  2.50\nrow2    3  4.76\n```\n", false},
		{"missing file", "```results/gone.txt\nrow1    1  2.50\n```\n", false},
		{"lines not contiguous", "```results/t.txt\nrow1    1  2.50\nrow3    5  6.00\n```\n", false},
		{"lines out of order", "```results/t.txt\nrow2    3  4.75\nrow1    1  2.50\n```\n", false},
		{"trailing blank added", "```results/t.txt\nrow1    1  2.50 \n```\n", false},
		{"empty quote", "```results/t.txt\n```\n", false},
		{"tag outside results/", "```bench/t.txt\nrow1    1  2.50\n```\n", false},
		{"tag escaping results/", "```results/../go.mod\nmodule dlm\n```\n", false},
		{"fence never closed", "```results/t.txt\nrow1    1  2.50\n", false},
	}
	for _, tc := range cases {
		blocks, err := fences(tc.doc)
		for _, b := range blocks {
			if err == nil {
				err = checkQuote(fsys, b)
			}
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: gate returned %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
