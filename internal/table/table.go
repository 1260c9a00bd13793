// Package table renders experiment output: numeric series (the paper's
// figures) as aligned text tables, CSV, and coarse ASCII charts for
// terminal inspection.
package table

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one labelled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Point appends one (x, y) pair.
func (s *Series) Point(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of curves over a common x-axis meaning (series may
// have different x grids).
type Figure struct {
	ID     string // e.g. "3.2a"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	// Stacked renders the SVG as stacked bars: at each x the series'
	// values pile up bottom-to-top in declaration order, so the bar
	// height is their sum (an attribution figure's conservation
	// identity made visible). CSV and text renderings are unchanged.
	Stacked bool
}

// AddSeries creates, attaches and returns a new labelled series.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// xGrid returns the sorted union of all series' x values.
func (f *Figure) xGrid() []float64 {
	//detlint:allow floatcmp grid x values are copied verbatim from series inputs, so identical bits mean identical points
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

// valueAt returns the series value at x and whether it exists.
func (s *Series) valueAt(x float64) (float64, bool) {
	for i, sx := range s.X {
		//detlint:allow floatcmp x coordinates are sweep inputs copied verbatim from configs; lookup by exact value is intended
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// WriteCSV emits the figure as CSV: header then one row per x value;
// missing points are empty cells.
func (f *Figure) WriteCSV(w io.Writer) error {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range f.xGrid() {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.valueAt(x); ok {
				row = append(row, trimFloat(y))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteText emits an aligned table with a title block.
func (f *Figure) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "  (y: %s)\n", f.YLabel)
	widths := []int{len(f.XLabel)}
	for _, s := range f.Series {
		widths = append(widths, max(len(s.Label), 10))
	}
	header := []string{pad(f.XLabel, widths[0])}
	for i, s := range f.Series {
		header = append(header, pad(s.Label, widths[i+1]))
	}
	fmt.Fprintln(w, "  "+strings.Join(header, "  "))
	for _, x := range f.xGrid() {
		row := []string{pad(trimFloat(x), widths[0])}
		for i, s := range f.Series {
			cell := ""
			if y, ok := s.valueAt(x); ok {
				cell = fmt.Sprintf("%.3f", y)
			}
			row = append(row, pad(cell, widths[i+1]))
		}
		fmt.Fprintln(w, "  "+strings.Join(row, "  "))
	}
	return nil
}

// WriteASCIIChart draws a crude scatter of all series over a
// width×height character grid, one marker letter per series.
func (f *Figure) WriteASCIIChart(w io.Writer, width, height int) error {
	if width < 16 || height < 4 {
		return fmt.Errorf("table: chart area %dx%d too small", width, height)
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return fmt.Errorf("table: figure %s has no points", f.ID)
	}
	//detlint:allow floatcmp degenerate-axis guard: both sides are the same accumulated extrema, exact equality detects a flat range
	if maxX == minX {
		maxX = minX + 1
	}
	//detlint:allow floatcmp degenerate-axis guard: both sides are the same accumulated extrema, exact equality detects a flat range
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := "abcdefghijklmnopqrstuvwxyz"
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			grid[height-1-cy][cx] = m
		}
	}
	fmt.Fprintf(w, "Figure %s: %s  [y: %.3g..%.3g %s]\n", f.ID, f.Title, minY, maxY, f.YLabel)
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s|\n", row)
	}
	fmt.Fprintf(w, "   %s (x: %.3g..%.3g %s)\n", strings.Repeat("-", width), minX, maxX, f.XLabel)
	for si, s := range f.Series {
		fmt.Fprintf(w, "   %c = %s\n", markers[si%len(markers)], s.Label)
	}
	return nil
}

// Table is a simple labelled grid for anchor comparisons.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends cells as one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText emits the aligned table.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, t.Title); err != nil {
		return err
	}
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
	line := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts = append(parts, pad(c, width))
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
