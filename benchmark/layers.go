package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/diskcache"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced run times calls into each layer's public functions from
// the benchmark's own wrappers; nothing inside the program is
// instrumented. It has two parts:
//
//   - layer probes: the same calls for every workload, each timed on
//     inputs generated from the seed, giving the per-layer metrics;
//   - the workload's replay, run in untraced/traced pairs: one "op" span
//     per operation with a child span per layer call, whose self times
//     plus the op's own (the residual) sum to the op's latency; the pairs
//     give the tracing overhead.
//
// End-to-end metrics never come from this run.

// probeReps is how many timed repetitions a probe takes its median over.
const probeReps = 5

// replayPairs is how many untraced/traced replay pairs the traced run
// makes, time permitting.
const replayPairs = 3

// replayStats is what one replay reports: the wall time summed over its
// op spans (the same measurement traced or not) and informational notes.
type replayStats struct {
	ops   int
	inOps time.Duration
	notes []metric
}

func tracedRun(e *env, w *workload) (*report, error) {
	r := &report{}
	tr := newTracer()
	probes := []func(*env, *report, *tracer) error{
		probeSim, probeDisk, probeCache, probeCore, probeTrace, probeExperiments, probeService, probeDiskcache,
	}
	for _, p := range probes {
		if err := p(e, r, tr); err != nil {
			return nil, err
		}
	}

	// The replay runs in untraced/traced pairs, alternating which side
	// goes first, so neither warm-up nor host drift lands on one side.
	var overhead []float64
	var notes []metric
	start := time.Now()
	for pair := 0; pair < replayPairs && (pair == 0 || time.Since(start) < e.measure()); pair++ {
		order := []*tracer{nil, tr}
		if pair%2 == 1 {
			order = []*tracer{tr, nil}
		}
		var plain, traced time.Duration
		for _, t := range order {
			st, err := w.replay(e, t)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			r.Attempted += st.ops
			if t == nil {
				plain = st.inOps
			} else {
				traced, notes = st.inOps, st.notes
			}
		}
		overhead = append(overhead, 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	}
	spans := tr.snapshot()
	ops := breakdowns(spans, "op")
	var lat, residual time.Duration
	for _, b := range ops {
		lat += b.Latency
		residual += b.Residual
	}
	r.add("bench.trace_overhead_pct", median(overhead), "pct")
	r.add("bench.residual_pct", 100*residual.Seconds()/lat.Seconds(), "pct")
	// A regeneration's specs run concurrently, so its self times overlap;
	// conservation holds only where a replay's layer calls are sequential.
	if w.name != "figures-quick" {
		if err := conservation(ops, 0.01); err != nil {
			r.fail("span conservation: %v", err)
		}
	}
	selfNotes(r, "self_us_per_op.", ops)
	selfNotes(r, "self_us_per_miss_probe.", breakdowns(spans, "probe"))
	r.Extra = append(r.Extra, notes...)

	f, err := os.Create(filepath.Join(e.opts.out, "trace-"+w.name+".json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := writeChrome(f, spans); err != nil {
		return nil, err
	}
	return r, f.Close()
}

// selfNotes adds the mean self time per breakdown of every layer, and of
// the residual, as notes named prefix+layer.
func selfNotes(r *report, prefix string, bs []requestBreakdown) {
	if len(bs) == 0 {
		return
	}
	total := make(map[string]time.Duration)
	for _, b := range bs {
		total["residual"] += b.Residual
		for name, d := range b.Layers {
			total[name] += d
		}
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.note(prefix+name, float64(total[name])/1e3/float64(len(bs)), "us")
	}
}

// perCall times fn in probeReps batches of n calls under one span each
// and returns the median nanoseconds per call.
func perCall(tr *tracer, name string, n int, fn func(i int) error) (float64, error) {
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		var err error
		d := tr.do(name, -1, 0, func() {
			for i := 0; i < n && err == nil; i++ {
				err = fn(rep*n + i)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d)/float64(n))
	}
	return median(per), nil
}

// ---- simulator layers -------------------------------------------------

// probeSim times the kernel's event dispatch: a closed After loop.
func probeSim(e *env, r *report, tr *tracer) error {
	n := e.scaled(2_000_000, 1000)
	d, err := perCall(tr, "sim.Kernel.Run", 1, func(int) error {
		k := sim.New()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < n {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		return k.Run()
	})
	r.add("sim.ns_per_event", d/float64(n), "ns")
	return err
}

// probeDisk times single-block requests resubmitted from their own
// completion, the way the engine drives a disk.
func probeDisk(e *env, r *report, tr *tracer) error {
	n := e.scaled(500_000, 1000)
	d, err := perCall(tr, "disk.SubmitNoWait", 1, func(int) error {
		k := sim.New()
		dk, err := disk.New(k, 0, disk.PaperParams(), rng.New(e.opts.seed))
		if err != nil {
			return err
		}
		count := 0
		req := disk.Request{Count: 1}
		req.OnBlock = func(int, sim.Time) {
			count++
			if count < n {
				req.Start = (count * 37) % 1000
				dk.SubmitNoWait(&req)
			}
		}
		dk.SubmitNoWait(&req)
		return k.Run()
	})
	r.add("disk.ns_per_request", d/float64(n), "ns")
	return err
}

// probeCache times one Reserve/Deposit/Consume cycle.
func probeCache(e *env, r *report, tr *tracer) error {
	c, err := cache.New(1024, 1)
	if err != nil {
		return err
	}
	d, err := perCall(tr, "cache.ops", e.scaled(2_000_000, 1000), func(i int) error {
		if !c.Reserve(1) {
			return fmt.Errorf("reserve refused at op %d", i)
		}
		c.Deposit(0, i)
		c.Consume(0)
		return nil
	})
	r.add("cache.ns_per_op", d, "ns")
	return err
}

// probeCore times core.Run on each merge-paper row and records the
// row's simulated work, which must repeat exactly for a seed.
func probeCore(e *env, r *report, tr *tracer) error {
	reps := e.scaled(probeReps, 1)
	for _, row := range mergeRows() {
		var runs []float64
		var first core.Result
		for i := 0; i < reps; i++ {
			cfg := row.cfg
			cfg.Seed = e.seedBase() + uint64(i)
			var res core.Result
			var err error
			d := tr.do("core.Run/"+row.name, -1, 0, func() { res, err = core.Run(cfg) })
			if err != nil {
				return fmt.Errorf("core.Run %s: %w", row.name, err)
			}
			if i == 0 {
				first = res
			}
			runs = append(runs, ms(d))
		}
		var requests int64
		for _, ds := range first.PerDisk {
			requests += ds.Requests
		}
		r.add("core.run_ms."+row.name, median(runs), "ms")
		r.add("core.disk_requests."+row.name, float64(requests), "count")
		r.add("core.success_ratio."+row.name, first.SuccessRatio(), "ratio")
		r.add("core.stall_s."+row.name, first.StallTime.Seconds(), "sim_s")
	}
	return nil
}

// stallConfig is the stall-attribution figure's inter-run point that
// /v1/explain requests in serve-cold.
func stallConfig(seed uint64) core.Config {
	_, cfg := point(25, 5, 10, 1000, true, false, 300, 0.3, seed)
	return cfg
}

// probeTrace prices recording a trace and explaining it.
func probeTrace(e *env, r *report, tr *tracer) error {
	cfg := stallConfig(e.seedBase())
	var overhead, build []float64
	events := 0
	for i := 0; i < e.scaled(3, 1); i++ {
		var plain core.Result
		var err error
		d0 := tr.do("core.Run", -1, 0, func() { plain, err = core.Run(cfg) })
		if err != nil {
			return err
		}
		rec := trace.New(0)
		traced := cfg
		traced.Trace = rec
		var res core.Result
		d1 := tr.do("core.Run+trace.Recorder", -1, 0, func() { res, err = core.Run(traced) })
		if err != nil {
			return err
		}
		if res.TotalTime != plain.TotalTime {
			r.fail("trace: traced run took %v simulated, untraced %v", res.TotalTime, plain.TotalTime)
		}
		d2 := tr.do("explain.Build+Check", -1, 0, func() {
			rep := explain.Build(rec, explain.Options{Makespan: res.TotalTime})
			err = rep.Check(res.StallTime)
		})
		if err != nil {
			r.fail("explain: %v", err)
		}
		overhead = append(overhead, ms(d1-d0))
		build = append(build, ms(d2))
		events = rec.Len()
	}
	r.add("trace.overhead_ms", median(overhead), "ms")
	r.add("trace.events", float64(events), "count")
	r.add("explain.build_ms", median(build), "ms")
	r.add("explain.ns_per_event", median(build)*1e6/float64(events), "ns")
	return nil
}

// wrappedRunAll regenerates the quick figure set with every Spec.Run
// wrapped in a span under parent, and returns each spec's wall time and
// the regeneration's.
func wrappedRunAll(e *env, tr *tracer, parent int, req int64) ([]time.Duration, time.Duration, error) {
	specs := experiments.All()
	durs := make([]time.Duration, len(specs))
	wrapped := make([]experiments.Spec, len(specs))
	for i, s := range specs {
		i, run := i, s.Run
		wrapped[i] = s
		wrapped[i].Run = func(o experiments.Options) (out experiments.Output, err error) {
			durs[i] = tr.do("experiments.spec/"+s.ID, parent, req, func() { out, err = run(o) })
			return out, err
		}
	}
	start := time.Now()
	_, err := experiments.RunAll(wrapped, figureOptions(e))
	return durs, time.Since(start), err
}

// probeExperiments times every spec of one quick regeneration.
func probeExperiments(e *env, r *report, tr *tracer) error {
	root := tr.begin("experiments.RunAll", -1, 0)
	durs, wall, err := wrappedRunAll(e, tr, root, 0)
	tr.end(root)
	if err != nil {
		return err
	}
	var longest, busy time.Duration
	for i, s := range experiments.All() {
		r.add("experiments.spec_s."+s.ID, durs[i].Seconds(), "s")
		longest = max(longest, durs[i])
		busy += durs[i]
	}
	r.add("experiments.critical_path_share", longest.Seconds()/wall.Seconds(), "ratio")
	r.add("parallel.efficiency", busy.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	return nil
}

// ---- serving layers ---------------------------------------------------

// probeService times the serving layers in process, on a service built
// like the daemon.
func probeService(e *env, r *report, tr *tracer) error {
	ctx := context.Background()
	svc := service.New(service.Options{})
	defer svc.Drain(ctx)
	hot := newHotStream(e.opts.seed, 0).sims[0]
	var hotReq service.SimulateRequest
	if err := decodeStrict(hot.body, &hotReq); err != nil {
		return err
	}
	batch := e.scaled(200, 4)

	decode, err := perCall(tr, "service.decode", batch, func(int) error {
		var req service.SimulateRequest
		return decodeStrict(hot.body, &req)
	})
	if err != nil {
		return err
	}
	paper := stallConfig(e.seedBase())
	hash, err := perCall(tr, "core.Hash", batch, func(int) error {
		_, err := paper.Hash()
		return err
	})
	if err != nil {
		return err
	}
	if _, _, err := svc.Simulate(ctx, hotReq); err != nil {
		return err
	}
	hit, err := perCall(tr, "service.Simulate/hit", batch, func(int) error {
		_, status, err := svc.Simulate(ctx, hotReq)
		if err == nil && status != service.CacheHit {
			err = fmt.Errorf("X-Cache %s, want hit", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	httpHit, err := probeHTTP(tr, svc, hot, batch)
	if err != nil {
		return err
	}

	cold := newColdStream(e.opts.seed, e.seedBase()+1<<20)
	miss, err := perCall(tr, "service.Simulate/miss", e.scaled(4, 1), func(int) error {
		var req service.SimulateRequest
		if err := decodeStrict(cold.freshCall().body, &req); err != nil {
			return err
		}
		_, status, err := svc.Simulate(ctx, req)
		if err == nil && status != service.CacheMiss {
			err = fmt.Errorf("X-Cache %s, want miss", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	aggs, err := core.RunGrid([]core.Config{paper}, 1, 1)
	if err != nil {
		return err
	}
	encode, err := perCall(tr, "core.encode", batch, func(int) error {
		_, err := json.Marshal(core.NewResultJSON(aggs[0]))
		return err
	})
	if err != nil {
		return err
	}
	seed := e.seedBase() + 2<<20
	explainD, err := perCall(tr, "service.Explain", 1, func(int) error {
		seed++
		req, _ := point(25, 5, 10, 1000, true, false, 300, 0.3, seed)
		_, _, err := svc.Explain(ctx, req)
		return err
	})
	if err != nil {
		return err
	}

	r.add("service.decode_us", decode/1e3, "us")
	r.add("core.hash_us", hash/1e3, "us")
	r.add("service.simulate_hit_us", hit/1e3, "us")
	r.add("service.http_overhead_us", (httpHit-hit)/1e3, "us")
	r.add("service.simulate_miss_ms", miss/1e6, "ms")
	r.add("core.encode_us", encode/1e3, "us")
	r.add("service.explain_ms", explainD/1e6, "ms")
	return nil
}

// probeHTTP returns the median nanoseconds of a memory hit through the
// service's HTTP handler over a loopback connection.
func probeHTTP(tr *tracer, svc *service.Service, c call, batch int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := newClient(1)
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()
	var lat []float64
	var callErr error
	for i := 0; i < probeReps*batch && callErr == nil; i++ {
		d := tr.do("http.POST /v1/simulate", -1, 0, func() {
			status, _, _, err := send(client, base, c)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d", status)
			}
			callErr = err
		})
		lat = append(lat, float64(d))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return 0, err
	}
	if err := <-served; err != http.ErrServerClosed {
		return 0, err
	}
	return median(lat), callErr
}

// probeDiskcache times the persistent tier: a durable Put, a verified
// Get, and Open's recovery scan over the entries written.
func probeDiskcache(e *env, r *report, tr *tracer) error {
	dir := filepath.Join(e.tmp, "probe-diskcache")
	dc, err := diskcache.Open(diskcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	aggs, err := core.RunGrid([]core.Config{stallConfig(e.seedBase())}, 1, 1)
	if err != nil {
		return err
	}
	body, err := json.Marshal(core.NewResultJSON(aggs[0]))
	if err != nil {
		return err
	}
	n := e.scaled(40, 2)
	key := func(i int) string { return fmt.Sprintf("%064x/1", i) }
	put, err := perCall(tr, "diskcache.Put", n, func(i int) error {
		dc.Put(key(i), body)
		return nil
	})
	if err != nil {
		return err
	}
	entries := dc.Len()
	get, err := perCall(tr, "diskcache.Get", e.scaled(200, 4), func(i int) error {
		if _, _, ok := dc.Get(key(i % entries)); !ok {
			return fmt.Errorf("entry %d missing", i%entries)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := dc.Close(); err != nil {
		return err
	}
	open, err := perCall(tr, "diskcache.Open", 1, func(int) error {
		c, err := diskcache.Open(diskcache.Options{Dir: dir})
		if err == nil {
			if c.Len() != entries {
				err = fmt.Errorf("reopened %d of %d entries", c.Len(), entries)
			}
			err = errors.Join(err, c.Close())
		}
		return err
	})
	if err != nil {
		return err
	}
	r.add("diskcache.put_ms", put/1e6, "ms")
	r.add("diskcache.get_us", get/1e3, "us")
	r.add("diskcache.open_ms_per_1k", open/1e6*1000/float64(entries), "ms")
	return nil
}

// ---- replays ----------------------------------------------------------

// replayFigures is one regeneration as an op whose children are the
// spec spans.
func replayFigures(e *env, tr *tracer) (*replayStats, error) {
	root := tr.begin("op", -1, 1)
	_, wall, err := wrappedRunAll(e, tr, root, 1)
	tr.end(root)
	return &replayStats{ops: 1, inOps: wall}, err
}

// replayMerge runs merge-paper's first cycles, one core.Run per op.
func replayMerge(e *env, tr *tracer) (*replayStats, error) {
	st := &replayStats{}
	for cycle := 0; cycle < e.scaled(3, 1); cycle++ {
		for _, row := range mergeRows() {
			cfg := row.cfg
			cfg.Seed = e.seedBase() + mergeDigestTrials + uint64(cycle)
			st.ops++
			req := int64(st.ops)
			var err error
			start := time.Now()
			root := tr.begin("op", -1, req)
			tr.do("core.Run", root, req, func() { _, err = core.Run(cfg) })
			tr.end(root)
			st.inOps += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", row.name, err)
			}
		}
	}
	return st, nil
}

// replayServeHot answers serve-hot's first requests in process after the
// same key fill as the daemon's set-up.
func replayServeHot(e *env, tr *tracer) (*replayStats, error) {
	ctx := context.Background()
	svc := service.New(service.Options{CacheEntries: 1024})
	defer svc.Drain(ctx)
	s := newHotStream(e.opts.seed, int(hotRate))
	for _, c := range s.sims {
		if _, err := answer(ctx, svc, c); err != nil {
			return nil, err
		}
	}
	calls := make([]call, e.scaled(3000, 60))
	for i := range calls {
		calls[i] = s.next()
	}
	st := &replayStats{}
	return st, replayServe(tr, svc, calls, nil, st)
}

// replayServeCold answers serve-cold's first requests in process on a
// service with a disk tier, restarted (reopened) over the filled pool
// like the daemon.
func replayServeCold(e *env, tr *tracer) (*replayStats, error) {
	ctx := context.Background()
	dir, err := os.MkdirTemp(e.tmp, "replay-")
	if err != nil {
		return nil, err
	}
	open := func() (*service.Service, error) {
		dc, err := diskcache.Open(diskcache.Options{Dir: filepath.Join(dir, "tier")})
		if err != nil {
			return nil, err
		}
		return service.New(service.Options{CacheEntries: 256, DiskCache: dc}), nil
	}
	closeSvc := func(svc *service.Service) error {
		return errors.Join(svc.Drain(ctx), svc.Close())
	}

	n := e.scaled(200, 8)
	s := newColdStream(e.opts.seed, e.seedBase())
	s.pool = make([]call, e.scaled(coldPool, 10))
	for i := range s.pool {
		s.pool[i] = s.freshCall()
	}
	svc, err := open()
	if err != nil {
		return nil, err
	}
	// Only the keys the replayed requests repeat need filling.
	for i := range s.pool[:min(len(s.pool), n/4+1)] {
		if s.pool[i].want, err = answer(ctx, svc, s.pool[i]); err != nil {
			return nil, err
		}
	}
	if err := closeSvc(svc); err != nil {
		return nil, err
	}
	if svc, err = open(); err != nil {
		return nil, err
	}
	probe, err := diskcache.Open(diskcache.Options{Dir: filepath.Join(dir, "probe")})
	if err != nil {
		return nil, err
	}
	calls := make([]call, n)
	for i := range calls {
		calls[i] = s.next()
	}
	st := &replayStats{}
	err = replayServe(tr, svc, calls, probe, st)
	return st, errors.Join(err, closeSvc(svc), probe.Close())
}

// replayServe answers calls in process on svc, one op span per request
// split into decode and the service call, which hashes the configuration
// itself (core.hash_us prices that hash apart, in probeService). When
// traced, a simulate
// miss is followed by side probes outside its op on the same key: the
// engine run, the encode (checked against the served body) and the disk
// tier's Put and Get.
func replayServe(tr *tracer, svc *service.Service, calls []call, probe *diskcache.Cache, st *replayStats) error {
	ctx := context.Background()
	h := svc.Handler()
	statuses := make(map[service.CacheStatus]int)
	for _, c := range calls {
		st.ops++
		req := int64(st.ops)
		var body []byte
		status := service.CacheHit
		var err error
		start := time.Now()
		root := tr.begin("op", -1, req)
		step := func(name string, fn func() error) {
			if err == nil {
				tr.do(name, root, req, func() { err = fn() })
			}
		}
		switch c.kind {
		case "metrics":
			step("service.Handler/metrics", func() error {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("HTTP %d", rec.Code)
				}
				return nil
			})
		case "sweep":
			var sw service.SweepRequest
			step("service.decode", func() error { return decodeStrict(c.body, &sw) })
			step("service.Sweep", func() error {
				var hits, points int
				body, hits, points, err = svc.Sweep(ctx, sw)
				if hits < points {
					status = service.CacheMiss
				}
				return err
			})
		default:
			var sr service.SimulateRequest
			step("service.decode", func() error { return decodeStrict(c.body, &sr) })
			if c.kind == "explain" {
				step("service.Explain", func() (err error) { body, status, err = svc.Explain(ctx, sr); return err })
			} else {
				step("service.Simulate", func() (err error) { body, status, err = svc.Simulate(ctx, sr); return err })
			}
		}
		tr.end(root)
		st.inOps += time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", c.kind, err)
		}
		if c.want != nil && !bytes.Equal(body, c.want) {
			return fmt.Errorf("%s: body differs from the first answer for its key", c.kind)
		}
		if c.kind != "metrics" {
			statuses[status]++
		}
		if tr != nil && c.kind == "simulate" && status == service.CacheMiss {
			if err := sideProbes(ctx, tr, req, c, body, probe); err != nil {
				return err
			}
		}
	}
	total := 0
	for _, n := range statuses {
		total += n
	}
	for _, s := range []service.CacheStatus{service.CacheHit, service.CacheHitDisk, service.CacheMiss} {
		st.notes = append(st.notes, metric{"replay_ratio." + string(s), float64(statuses[s]) / float64(max(1, total)), "ratio"})
	}
	return nil
}

// sideProbes re-runs one simulate miss layer by layer.
func sideProbes(ctx context.Context, tr *tracer, req int64, c call, served []byte, probe *diskcache.Cache) error {
	root := tr.begin("probe", -1, req)
	defer tr.end(root)
	var aggs []core.Aggregate
	var err error
	tr.do("core.RunGridContext", root, req, func() { aggs, err = core.RunGridContext(ctx, c.cfgs, 1, 0) })
	if err != nil {
		return err
	}
	var body []byte
	tr.do("core.encode", root, req, func() { body, err = json.Marshal(core.NewResultJSON(aggs[0])) })
	if err != nil {
		return err
	}
	if !bytes.Equal(body, served) {
		return fmt.Errorf("engine run of %s does not reproduce the served body", c.body)
	}
	if probe == nil {
		return nil
	}
	h, err := c.cfgs[0].Hash()
	if err != nil {
		return err
	}
	key := h + "/1"
	tr.do("diskcache.Put", root, req, func() { probe.Put(key, body) })
	var got []byte
	tr.do("diskcache.Get", root, req, func() { got, _, _ = probe.Get(key) })
	if !bytes.Equal(got, body) {
		return fmt.Errorf("disk tier returned a different body for %s", key)
	}
	return nil
}
