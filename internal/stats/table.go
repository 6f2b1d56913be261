package stats

import (
	"fmt"
	"slices"
	"strings"
)

// Cell is one table cell: a number kept with the format that renders
// it, or a text label.
type Cell struct {
	format string
	vals   []float64 // nil for a text cell, whose text is format
}

// Num is a number cell rendered as fmt.Sprintf(format, vals...). A
// value is stored in the unit its column shows (Kpps, µs, percent
// points, ...) and rounds only when rendered. A composite cell, such as
// a "p50/p99/p99.9" latency triple, holds all its values under one
// format.
func Num(format string, vals ...float64) Cell {
	return Cell{format: format, vals: vals}
}

// Text is a label cell.
func Text(s string) Cell { return Cell{format: s} }

// String renders the cell.
func (c Cell) String() string {
	if c.vals == nil {
		return c.format
	}
	args := make([]any, len(c.vals))
	for i, v := range c.vals {
		args[i] = v
	}
	return fmt.Sprintf(c.format, args...)
}

// Table holds a labelled results grid: the common currency between
// experiment harnesses, tests and the CLI. Each experiment returns one
// or more Tables shaped like the paper's figures; its numbers stay
// readable through Value.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]Cell
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...Cell) {
	t.Rows = append(t.Rows, cells)
}

// Value returns the number in column col of the first row whose leading
// cells render as row, e.g. Value("Falcon/Con", "cpu-offline"). A
// missing row or column, or a cell that is not a single number, is an
// error.
func (t *Table) Value(col string, row ...string) (float64, error) {
	ci := slices.Index(t.Columns, col)
	if ci < 0 {
		return 0, fmt.Errorf("table %q has no column %q", t.Title, col)
	}
	renders := func(c Cell, s string) bool { return c.String() == s }
	for _, r := range t.Rows {
		if len(r) < len(row) || !slices.EqualFunc(r[:len(row)], row, renders) {
			continue
		}
		c := r[ci]
		if len(c.vals) != 1 {
			return 0, fmt.Errorf("table %q: %v %s is %q, not a number", t.Title, row, col, c)
		}
		return c.vals[0], nil
	}
	return 0, fmt.Errorf("table %q has no row %v", t.Title, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	rows := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		rows[ri] = make([]string, len(r))
		for i, c := range r {
			rows[ri][i] = c.String()
			if i < len(widths) && len(rows[ri][i]) > widths[i] {
				widths[i] = len(rows[ri][i])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("== " + t.Title + " ==\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
