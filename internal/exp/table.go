// Package exp is the experiment harness: one runner per experiment in the
// Runners index (F1, E1–E11, A1–A5), each producing a Table that
// cmd/experiments renders to Markdown and CSV, and that bench_test.go wraps
// as benchmarks.
//
// The paper is a theory note with a single figure and no evaluation tables;
// the experiments operationalize each claim of the text, and each Table's
// Anchor names the claim its experiment reproduces.
package exp

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a named experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title is the human-readable headline.
	Title string
	// Anchor cites the paper claim the experiment reproduces.
	Anchor string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, as formatted strings.
	Rows [][]string
	// Notes hold free-form observations appended to the rendering.
	Notes []string
}

// AddRow appends a row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavoured Markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", t.ID, t.Title)
	if t.Anchor != "" {
		fmt.Fprintf(&sb, "*Paper anchor: %s*\n\n", t.Anchor)
	}
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range t.Notes {
			sb.WriteString("- " + n + "\n")
		}
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (cells are escaped by
// quoting when needed).
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			sb.WriteString(strconv.Quote(c))
		} else {
			sb.WriteString(c)
		}
	}
	sb.WriteByte('\n')
}

// Options configures experiment runners.
type Options struct {
	// Quick shrinks sweeps to sizes suitable for unit tests and CI.
	Quick bool
	// Seed drives all randomness in the runner.
	Seed uint64
}

// sizes picks between full and quick sweeps.
func (o Options) sizes(full, quick []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// reps picks between full and quick repetition counts.
func (o Options) reps(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// fmtInt formats an int cell.
func fmtInt(v int) string { return strconv.Itoa(v) }

// fmtInt64 formats an int64 cell.
func fmtInt64(v int64) string { return strconv.FormatInt(v, 10) }

// fmtFloat formats a float cell with 3 decimals.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// fmtRate formats a ratio as a percentage.
func fmtRate(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}

// Median returns the median of a slice (which it sorts in place; 0 for an
// empty slice). Exported for workload drivers (cmd/churnsim) that render
// their sweeps through this package's tables.
func Median(xs []int64) int64 { return median(xs) }

// median returns the median of a slice (which it sorts in place).
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[len(xs)/2]
}
