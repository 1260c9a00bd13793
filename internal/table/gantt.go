package table

import (
	"fmt"
	"io"
	"strings"
)

// GanttRow is one labelled track of busy intervals for WriteGantt.
type GanttRow struct {
	Label     string
	Intervals [][2]float64 // [start, end) pairs, same unit as the window
}

// WriteGantt renders rows as a character timeline over the window
// [from, to): '#' marks busy cells (any overlap), '.' idle. It returns
// an error for an empty window or unusable width.
func WriteGantt(w io.Writer, rows []GanttRow, from, to float64, width int) error {
	if to <= from {
		return fmt.Errorf("table: gantt window [%v, %v) empty", from, to)
	}
	if width < 10 {
		return fmt.Errorf("table: gantt width %d too small", width)
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	cell := (to - from) / float64(width)
	for _, r := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, iv := range r.Intervals {
			if iv[1] <= from || iv[0] >= to {
				continue
			}
			lo := int((max(iv[0], from) - from) / cell)
			hi := int((min(iv[1], to) - from) / cell)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i < width; i++ {
				line[i] = '#'
			}
		}
		if _, err := fmt.Fprintf(w, "  %s |%s|\n", pad(r.Label, labelW), line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %s  %s\n  %s  %-0.6g%s%.6g\n",
		strings.Repeat(" ", labelW), strings.Repeat("-", width),
		strings.Repeat(" ", labelW), from,
		strings.Repeat(" ", max(1, width-len(fmt.Sprintf("%-0.6g", from))-len(fmt.Sprintf("%.6g", to)))), to)
	return err
}
