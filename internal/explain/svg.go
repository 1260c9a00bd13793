package explain

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Timeline rendering geometry, in SVG user units.
const (
	svgWidth     = 1000
	svgLabelW    = 80
	svgRowH      = 22
	svgRowGap    = 6
	svgTopPad    = 28
	svgBottomPad = 34
)

// phaseColor maps each mechanical phase to its timeline fill. The
// palette matches the stacked attribution figure so the two renderings
// read together.
func phaseColor(p trace.Phase) string {
	switch p {
	case trace.PhaseSeek:
		return "#d95f02"
	case trace.PhaseRotation:
		return "#e6ab02"
	case trace.PhaseRetry:
		return "#e7298a"
	case trace.PhaseTransfer:
		return "#1b9e77"
	case trace.PhaseOutage:
		return "#666666"
	default:
		return "#999999"
	}
}

// WriteTimelineSVG renders the trace as a static timeline: one row per
// track (CPU first, then each disk in track order), disk busy segments
// colored by phase, CPU compute in blue and stalls in red, and the
// top stall chains outlined on the CPU row. The output is deterministic
// for a deterministic trace.
func WriteTimelineSVG(w io.Writer, r *trace.Recorder, rep *Report) error {
	makespan := rep.Makespan
	if makespan <= 0 {
		return fmt.Errorf("explain: timeline needs a positive makespan")
	}
	tracks := []int{trace.CPUTrack}
	seen := map[int]bool{trace.CPUTrack: true}
	spans := r.DiskSpans()
	for i := 0; i < spans.Len(); i++ {
		if t := spans.At(i).Track; !seen[t] {
			seen[t] = true
			tracks = append(tracks, t)
		}
	}
	sort.Ints(tracks)

	plotW := float64(svgWidth - svgLabelW - 10)
	x := func(t sim.Time) float64 {
		return float64(svgLabelW) + plotW*float64(t/makespan)
	}
	rowY := map[int]int{}
	for i, t := range tracks {
		rowY[t] = svgTopPad + i*(svgRowH+svgRowGap)
	}
	height := svgTopPad + len(tracks)*(svgRowH+svgRowGap) + svgBottomPad

	ew := &errWriter{w: w}
	fmt.Fprintf(ew, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		svgWidth, height, svgWidth, height)
	fmt.Fprintf(ew, `<rect width="%d" height="%d" fill="white"/>`+"\n", svgWidth, height)
	fmt.Fprintf(ew, `<text x="%d" y="16" font-family="sans-serif" font-size="12">trace timeline — makespan %.3f ms</text>`+"\n",
		svgLabelW, float64(makespan))

	for _, t := range tracks {
		y := rowY[t]
		fmt.Fprintf(ew, `<text x="4" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			y+svgRowH-7, r.TrackName(t))
		fmt.Fprintf(ew, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="#f4f4f4"/>`+"\n",
			svgLabelW, y, plotW, svgRowH)
	}

	for i := 0; i < spans.Len(); i++ {
		s := spans.At(i)
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		y := rowY[s.Track]
		fmt.Fprintf(ew, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"><title>%s %s %.3f–%.3f ms</title></rect>`+"\n",
			x(start), y, segWidth(x(start), x(end)), svgRowH,
			phaseColor(s.Phase), r.TrackName(s.Track), s.Phase, float64(start), float64(end))
	}
	for cpu, i := r.CPUSpans(), 0; i < cpu.Len(); i++ {
		s := cpu.At(i)
		start, end, ok := clamp(s.Start, s.End, makespan)
		if !ok {
			continue
		}
		color := "#3366cc"
		label := "compute"
		if s.Kind == trace.CPUStall {
			color, label = "#cc3333", "stall"
			if s.Run >= 0 {
				label = fmt.Sprintf("stall (run %d)", s.Run)
			}
		}
		y := rowY[trace.CPUTrack]
		fmt.Fprintf(ew, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"><title>%s %.3f–%.3f ms</title></rect>`+"\n",
			x(start), y, segWidth(x(start), x(end)), svgRowH, color, label, float64(start), float64(end))
	}
	// Outline the top stall chains so the eye lands on the critical path.
	for _, c := range rep.Chains {
		y := rowY[trace.CPUTrack]
		fmt.Fprintf(ew, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="none" stroke="black" stroke-width="1.5"/>`+"\n",
			x(c.Start), y-2, segWidth(x(c.Start), x(c.End)), svgRowH+4)
	}

	// Time axis.
	axisY := height - svgBottomPad + 14
	fmt.Fprintf(ew, `<line x1="%d" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n",
		svgLabelW, axisY, float64(svgLabelW)+plotW, axisY)
	for i := 0; i <= 4; i++ {
		t := makespan * sim.Time(i) / 4
		fmt.Fprintf(ew, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%.0f</text>`+"\n",
			x(t), axisY+14, float64(t))
	}
	fmt.Fprintf(ew, "</svg>\n")
	return ew.err
}

// segWidth keeps even sub-pixel spans visible.
func segWidth(x0, x1 float64) float64 {
	w := x1 - x0
	if w < 0.3 {
		return 0.3
	}
	return w
}
