// Package experiments regenerates the paper's quantitative claims. The
// paper (a theory paper) has no tables or figures, so DESIGN.md Section 4
// defines the experiment suite E1–E15 and figure-equivalents F1–F3 from
// the numbered lemmas and theorems; every function here both produces a
// human-readable table and verifies the underlying claim, returning an
// error when the measured behaviour contradicts the paper.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"pslocal/internal/engine"
)

// Config controls instance sizes and determinism.
type Config struct {
	// Seed drives every generator; equal seeds give identical tables.
	Seed int64
	// Quick shrinks the grids for use inside benchmarks and CI.
	Quick bool
	// Engine configures the parallel oracle portfolio and cancellation
	// for every experiment; the zero value is serial. Conflict-graph
	// construction is serial for every worker count, and the tables
	// themselves are identical for every worker count.
	Engine engine.Options
	// Oracle names the portfolio E13 races against its members
	// ("portfolio:<a>,<b>,..."); empty selects the E13 default.
	Oracle string
}

// Table is a rendered experiment: a claim, measurements, and notes.
type Table struct {
	// ID is the experiment identifier, e.g. "E4".
	ID string
	// Title is a one-line description.
	Title string
	// Claim states what the paper asserts and this table checks.
	Claim string
	// Columns names the columns.
	Columns []string
	// Rows holds the measurements, one string per column.
	Rows [][]string
	// Notes carries caveats and substitutions.
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// itoa and ftoa keep row building terse.
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%.3f", v) }
func btoa(ok bool) string   { return map[bool]string{true: "yes", false: "NO"}[ok] }
