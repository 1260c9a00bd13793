package trace

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// TruncatedMark is the name of the sentinel mark row WriteCSV appends
// when the recorder hit its event cap, so a reader of the flat export
// (ReadCSV included) can tell a complete timeline from a clipped one.
const TruncatedMark = "trace-truncated"

// WriteCSV exports the trace as a flat time-series with one row per
// event, sorted by start time (ties keep record order within and across
// categories via a stable sort over a fixed category order):
//
//	kind,track,name,start_ms,end_ms,value
//
// kind ∈ {disk, cpu, prefetch, cache, queue, mark}; instantaneous rows
// carry start_ms == end_ms; value is the prefetch block count, the
// cache occupancy, the queue depth, or — on cpu stall rows — the demand
// run the CPU was blocked on, empty otherwise. A truncated trace ends
// with a sentinel "mark" row named by TruncatedMark. The byte stream is
// deterministic for a fixed (config, seed).
func (r *Recorder) WriteCSV(w io.Writer) error {
	type row struct {
		start  sim.Time
		fields []string
	}
	ms := func(t sim.Time) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }
	var rows []row
	for spans, i := r.DiskSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		rows = append(rows, row{s.Start, []string{
			"disk", r.TrackName(s.Track), s.Phase.String(), ms(s.Start), ms(s.End), ""}})
	}
	for spans, i := r.CPUSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		val := ""
		if s.Kind == CPUStall && s.Run >= 0 {
			val = strconv.Itoa(s.Run)
		}
		rows = append(rows, row{s.Start, []string{
			"cpu", r.TrackName(CPUTrack), s.Kind.String(), ms(s.Start), ms(s.End), val}})
	}
	for spans, i := r.PrefetchSpans(), 0; i < spans.Len(); i++ {
		s := spans.At(i)
		rows = append(rows, row{s.Issued, []string{
			"prefetch", r.TrackName(s.Track), "run " + strconv.Itoa(s.Run),
			ms(s.Issued), ms(s.Done), strconv.Itoa(s.Blocks)}})
	}
	for samples, i := r.CacheSamples(), 0; i < samples.Len(); i++ {
		s := samples.At(i)
		rows = append(rows, row{s.At, []string{
			"cache", "cache", "occupancy", ms(s.At), ms(s.At), strconv.Itoa(s.Occupied)}})
	}
	for samples, i := r.QueueSamples(), 0; i < samples.Len(); i++ {
		s := samples.At(i)
		rows = append(rows, row{s.At, []string{
			"queue", r.TrackName(s.Track), "depth", ms(s.At), ms(s.At), strconv.Itoa(s.Depth)}})
	}
	for marks, i := r.Marks(), 0; i < marks.Len(); i++ {
		m := marks.At(i)
		rows = append(rows, row{m.At, []string{
			"mark", r.TrackName(m.Track), m.Name, ms(m.At), ms(m.At), ""}})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].start < rows[j].start })

	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "track", "name", "start_ms", "end_ms", "value"}); err != nil {
		return err
	}
	for _, rw := range rows {
		if err := cw.Write(rw.fields); err != nil {
			return err
		}
	}
	if r.Truncated() {
		last := "0"
		if n := len(rows); n > 0 {
			last = rows[n-1].fields[3]
		}
		if err := cw.Write([]string{"mark", r.TrackName(CPUTrack), TruncatedMark, last, last, ""}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
