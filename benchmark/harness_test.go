package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 100}, {1, 100},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p < 100 && c.n-rank(c.n, p) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins the values statistics.quantiles(xs, n=4)
// gives, which is how spreads are computed from results.json.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestOpenLoopTimesFromDue stalls the first request; the requests due
// behind it must carry the stall in their latency, and count as backlog
// rather than generator lateness.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(60 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	next := func() call { return call{kind: "metrics", path: "/"} }
	ok := func(call, int, string, []byte, error) bool { return true }

	outs := loop(client, srv.URL, next, 1, 1000, 10, 0, ok)
	if len(outs) != 10 {
		t.Fatalf("%d outcomes, want 10", len(outs))
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].due < outs[j].due })
	for i, o := range outs {
		if want := time.Duration(i) * time.Millisecond; o.due != want {
			t.Errorf("request %d due at %v, want %v", i, o.due, want)
		}
		if i == 0 {
			continue
		}
		if o.slept {
			t.Errorf("request %d counted as generator lateness; it was queued behind the stall", i)
		}
		if lat := o.done - o.due; lat < 50*time.Millisecond {
			t.Errorf("request %d latency from due %v, want the 60ms stall included", i, lat)
		}
	}

	// With nothing stalling, every request after the first waits for its
	// due time and its lateness is the gap between due and sent.
	outs = loop(client, srv.URL, next, 1, 200, 5, 0, ok)
	for _, o := range outs {
		if o.due > 0 && !o.slept {
			t.Errorf("request due at %v was not paced", o.due)
		}
		if o.sent < o.due {
			t.Errorf("request sent at %v before its due time %v", o.sent, o.due)
		}
	}
}

// TestClosedLoopStops checks both closed-loop stopping rules and that
// at most `senders` requests are ever in flight.
func TestClosedLoopStops(t *testing.T) {
	var inflight, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
	}))
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	next := func() call { return call{kind: "metrics", path: "/"} }
	ok := func(call, int, string, []byte, error) bool { return true }

	if outs := loop(client, srv.URL, next, 2, 0, 7, 0, ok); len(outs) != 7 {
		t.Errorf("n=7 closed loop sent %d requests", len(outs))
	}
	start := time.Now()
	outs := loop(client, srv.URL, next, 2, 0, 0, 50*time.Millisecond, ok)
	if el := time.Since(start); el > 500*time.Millisecond || len(outs) == 0 {
		t.Errorf("timed closed loop ran %v and sent %d requests", el, len(outs))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight with 2 senders", p)
	}
}

func TestSelfTimesAndResidual(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Req: 1, Start: 0, End: 100 * ms},
		{Name: "service.decode", Parent: 0, Req: 1, Start: 10 * ms, End: 30 * ms},
		{Name: "service.Simulate", Parent: 0, Req: 1, Start: 30 * ms, End: 60 * ms},
		{Name: "diskcache.Get", Parent: 2, Req: 1, Start: 40 * ms, End: 50 * ms},
		// A second op whose children overlap: they are merged, not
		// subtracted twice, and conservation must flag the overlap.
		{Name: "op", Parent: -1, Req: 2, Start: 200 * ms, End: 300 * ms},
		{Name: "a", Parent: 4, Req: 2, Start: 210 * ms, End: 240 * ms},
		{Name: "b", Parent: 4, Req: 2, Start: 220 * ms, End: 250 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 10 * ms, 60 * ms, 30 * ms, 30 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	bs := breakdowns(spans, "op")
	if len(bs) != 2 {
		t.Fatalf("%d breakdowns, want 2", len(bs))
	}
	if b := bs[0]; b.Residual != 50*ms || b.Latency != 100*ms || b.Layers["diskcache.Get"] != 10*ms {
		t.Errorf("first op breakdown %+v", b)
	}
	if err := conservation(bs[:1], 0.01); err != nil {
		t.Errorf("sequential children: %v", err)
	}
	if err := conservation(bs[1:], 0.01); err == nil {
		t.Error("overlapping children passed conservation")
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	below := []float64{55, 55.5, 56, 56.5, 57, 57.5, 58, 58.5, 59, 59.5}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           verdict
	}{
		{"same", parent, parent, true, unchanged},
		{"20% faster", parent, shift(parent, 0.8), true, improved},
		{"3% slower", parent, shift(parent, 1.03), true, unchanged},
		{"20% slower", parent, shift(parent, 1.2), true, regressed},
		{"20% more throughput", parent, shift(parent, 1.2), false, improved},
		{"20% less throughput", parent, shift(parent, 0.8), false, regressed},
		{"spread wider than the bound", parent, wide, true, unresolved},
		{"wide parent, gap inside its IQR", wide, shift(wide, 1.05), true, unresolved},
		// Every change run beats every parent run, but the gap is inside
		// the parent's spread: not a gain, yet not unresolved either.
		{"wide parent, every run better", wide, below, true, unchanged},
	} {
		if got := judge(c.parent, c.change, c.lower, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCountsRunsPerWorkload writes six results.json per side,
// five of serve-hot and one of merge-paper. serve-hot is judged;
// merge-paper, with one run a side, must be unresolved even though its
// single change run is far better than its single parent run.
func TestCompareCountsRunsPerWorkload(t *testing.T) {
	def := filepath.Join(t.TempDir(), "BENCHMARK.json")
	spec := `{"workloads": [{"name": "serve-hot"}, {"name": "merge-paper"}],
		"end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(def, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	side := func(mergeMs float64) string {
		dir := t.TempDir()
		for i := 0; i < 6; i++ {
			wl, v := "serve-hot", 1+0.001*float64(i)
			if i == 5 {
				wl, v = "merge-paper", mergeMs
			}
			res := results{Reports: []*report{{Workload: wl, Metrics: []metric{{"op_p50_ms", v, "ms"}}}}}
			b, _ := json.Marshal(res)
			sub := filepath.Join(dir, string(rune('a'+i)))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, "results.json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	var out bytes.Buffer
	if err := runCompare(&out, def, side(20), side(10)); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	verdicts := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		verdicts[f[0]] = f[len(f)-1]
	}
	if verdicts["serve-hot"] != string(unchanged) || verdicts["merge-paper"] != string(unresolved) {
		t.Errorf("verdicts %v, want serve-hot unchanged and merge-paper unresolved\n%s", verdicts, out.String())
	}

	// With no workload at five runs a side there is nothing to judge.
	if err := runCompare(io.Discard, def, side(20)+"/f", side(10)+"/f"); err == nil {
		t.Error("one run per side compared without error")
	}
}

// TestPointMatchesService checks that the configs the streams carry are
// the ones simd derives from the request bodies: the engine run of each
// reproduces the service's body byte for byte.
func TestPointMatchesService(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{})
	defer svc.Drain(ctx)
	cold := newColdStream(3, 3_000_009)
	calls := []call{newHotStream(3, 0).sims[5], cold.freshCall(), cold.freshCall()}
	for _, c := range calls {
		body, err := answer(ctx, svc, c)
		if err != nil {
			t.Fatal(err)
		}
		aggs, err := core.RunGrid(c.cfgs, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(core.NewResultJSON(aggs[0]))
		if string(body) != string(want) {
			t.Errorf("%s: service body differs from the engine run of its config", c.body)
		}
	}
}

// loadDefinition reads BENCHMARK.json, refusing any key the benchmark
// contract does not have.
func loadDefinition(t *testing.T) definition {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d definition
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefinitionIsWellFormed(t *testing.T) {
	d := loadDefinition(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range d.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	setup := false
	for _, m := range d.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range d.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d", d.RunSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", d.Paths)
	}
	for _, arg := range d.Command[1:] {
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command names %q, outside the benchmark's paths", arg)
		}
	}
	if runs := 4 + 22*len(d.Workloads); runs*(d.RunSeconds+15) > 3000 {
		t.Errorf("%d runs of %ds leave too little of the 3420s budget", runs, d.RunSeconds)
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at 1/50 scale,
// untraced, and one traced run, and checks the metric names each emits
// are exactly the ones BENCHMARK.json declares.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds simd and runs every workload")
	}
	d := loadDefinition(t)
	var e2e, layer []string
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range d.PerLayer {
		layer = append(layer, m.Name)
	}
	dir := t.TempDir()
	simd := filepath.Join(dir, "simd")
	if out, err := exec.Command("go", "build", "-o", simd, "repro/cmd/simd").CombinedOutput(); err != nil {
		t.Fatalf("build simd: %v\n%s", err, out)
	}
	e, err := newEnv(options{seed: goldenSeed, seconds: 10, out: dir, simd: simd, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	names := func(r *report) []string {
		var ns []string
		for _, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s is %v", m.Name, m.Value)
			}
			ns = append(ns, m.Name)
		}
		return ns
	}
	for _, w := range workloads {
		r, err := w.run(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct() {
			t.Errorf("%s: %d failed: %v", w.name, r.Failed, r.Failures)
		}
		assertSameNames(t, w.name, names(r), e2e)
	}
	r, err := tracedRun(e, findWorkload("serve-cold"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Errorf("traced serve-cold: %v", r.Failures)
	}
	assertSameNames(t, "traced serve-cold", names(r), layer)
}

func assertSameNames(t *testing.T, who string, got, want []string) {
	t.Helper()
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s emits %d metrics, BENCHMARK.json declares %d\n got %v\nwant %v", who, len(g), len(w), g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s emits %q where BENCHMARK.json declares %q", who, g[i], w[i])
		}
	}
}
