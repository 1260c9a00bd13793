package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// hotRate and coldRate are the nominal open-loop rates (requests/s).
	// They are load levels, not traffic: each is under half of the
	// closed-loop capacity measured on its mix on a 2-vCPU guest while its
	// host ran slowest, so the nominal phase measures latency, not a
	// growing backlog.
	hotRate  = 500.0
	coldRate = 20.0
	// nominalShare of the measured seconds runs the open loop at the
	// nominal rate; the rest is the closed-loop capacity phase.
	nominalShare = 0.6
	// genLateLimit is the generator-lateness guard: past it at the median
	// the latencies would measure the load generator's scheduling. It is
	// not applied at p99: on a 2-vCPU guest whose host steals CPU, a few
	// wake-ups per run are milliseconds late whatever the generator does.
	genLateLimit = time.Millisecond
	// sampleEvery is how often a distinct response body is kept and
	// byte-compared against an in-process reference service.
	sampleEvery = 50
)

// ---- the daemon under test --------------------------------------------

// daemon is one simd process started with -addr 127.0.0.1:0.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer // read only after done is closed
	done   chan struct{}

	stopOnce sync.Once
	rssMB    float64
	stopErr  error
}

// simdNice is the niceness simd runs at. The load generator shares the
// machine's CPUs with it; at equal priority a sender waking for its due
// time can queue behind simd's busy threads for a scheduler slice, which
// would make the open loop late by milliseconds. simd still gets every
// cycle the mostly idle generator leaves.
const simdNice = "10"

// startDaemon execs simd and returns once /healthz answers 200, with the
// time from exec to that answer.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command("nice", append([]string{"-n", simdNice, bin, "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout = w
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &d.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec simd: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
	case <-d.done:
		return nil, 0, fmt.Errorf("simd exited before listening: %s", strings.TrimSpace(d.stderr.String()))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("simd did not report its address within 30s")
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("simd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain to finish and returns simd's
// peak resident set in MiB. Later calls return the first call's result.
func (d *daemon) stop() (float64, error) {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.stopErr = errors.New("simd did not drain within 30s")
			return
		}
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rssMB = float64(ru.Maxrss) / 1024
		}
	})
	return d.rssMB, d.stopErr
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// cpu returns simd's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// addrWatcher scans simd's stdout for "simd: listening on ADDR".
type addrWatcher struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if addr, ok := strings.CutPrefix(line, "simd: listening on "); ok {
			w.addr <- addr
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}

// ---- requests ---------------------------------------------------------

// call is one request of a workload's stream.
type call struct {
	kind string // simulate | repeat | sweep | explain | metrics
	path string
	body []byte        // nil for GET /metrics
	cfgs []core.Config // the configurations behind body, re-run by the traced replay's side probes
	want []byte        // the body a repeat must get back
}

// point builds one simulate request and the core.Config simd derives
// from it.
func point(k, d, n, blocks int, inter, sync bool, cacheBlocks int, mergeMs float64, seed uint64) (service.SimulateRequest, core.Config) {
	req := service.SimulateRequest{
		K: k, D: d, N: n, BlocksPerRun: blocks,
		InterRun: inter, Synchronized: sync,
		CacheBlocks: cacheBlocks, MergeMs: mergeMs, Seed: seed,
	}
	cfg := core.Default()
	cfg.K, cfg.D, cfg.N, cfg.BlocksPerRun = k, d, n, blocks
	cfg.InterRun, cfg.Synchronized = inter, sync
	cfg.MergeTimePerBlock = sim.Ms(mergeMs)
	cfg.Seed = seed
	switch cacheBlocks {
	case 0:
		cfg.CacheBlocks = cfg.DefaultCache()
	case -1:
		cfg.CacheBlocks = cache.Unlimited
	default:
		cfg.CacheBlocks = cacheBlocks
	}
	return req, cfg
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func simulateCall(kind string, req service.SimulateRequest, cfg core.Config) call {
	path := "/v1/simulate"
	if kind == "explain" {
		path = "/v1/explain"
	}
	return call{kind: kind, path: path, body: mustJSON(req), cfgs: []core.Config{cfg}}
}

func sweepCall(reqs []service.SimulateRequest) call {
	return call{kind: "sweep", path: "/v1/sweep", body: mustJSON(service.SweepRequest{Points: reqs})}
}

// share is how many requests of one kind a block of a mix holds.
type share struct {
	kind  string
	count int
}

// kindBlock returns a shuffled block holding each kind its count of
// times. Streams draw kinds block by block, so every block has the
// mix's exact proportions and the cost of a phase does not drift with
// the luck of the draw.
func kindBlock(rng *rand.Rand, mix []share) []string {
	var b []string
	for _, m := range mix {
		for i := 0; i < m.count; i++ {
			b = append(b, m.kind)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// blockLen is how many requests one block of mix holds.
func blockLen(mix []share) int {
	n := 0
	for _, m := range mix {
		n += m.count
	}
	return n
}

// ---- serve-hot stream -------------------------------------------------

const (
	hotKeys        = 64
	hotSweepPoints = 8
)

// hotMix is synthetic, not measured traffic: 9% sweeps as designed, and
// the simulates take the rest.
var hotMix = []share{{"simulate", 91}, {"sweep", 9}}

// hotStream is serve-hot's traffic: per block of 100, 91 simulates and
// 9 sweeps of 8 points, every key drawn Zipf(1.1) from 64 small configs,
// plus a /metrics scrape every `every` requests (once per second at the
// nominal rate).
type hotStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	reqs  []service.SimulateRequest
	sims  []call
	every int
	n     int
	kinds []string
}

func newHotStream(seed uint64, every int) *hotStream {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e1))
	s := &hotStream{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, hotKeys-1), every: every}
	for i := 0; i < hotKeys; i++ {
		req, cfg := point(8, 4, 4, 100, i%2 == 1, i%4 >= 2, 0, 0, seed*1000+uint64(i))
		s.reqs = append(s.reqs, req)
		s.sims = append(s.sims, simulateCall("simulate", req, cfg))
	}
	return s
}

func (s *hotStream) next() call {
	s.n++
	if s.every > 0 && s.n%s.every == 0 {
		return call{kind: "metrics", path: "/metrics"}
	}
	if len(s.kinds) == 0 {
		s.kinds = kindBlock(s.rng, hotMix)
	}
	kind := s.kinds[0]
	s.kinds = s.kinds[1:]
	if kind == "simulate" {
		return s.sims[s.zipf.Uint64()]
	}
	var reqs []service.SimulateRequest
	for j := 0; j < hotSweepPoints; j++ {
		reqs = append(reqs, s.reqs[s.zipf.Uint64()])
	}
	return sweepCall(reqs)
}

// ---- serve-cold stream ------------------------------------------------

const (
	// coldPool is how many distinct keys are written to the disk tier
	// before simd restarts; repeats are drawn from them.
	coldPool        = 300
	coldSweepPoints = 4
)

// coldMix is 75% fresh simulates, 15% repeats, 5% sweeps and 5%
// explains. Like hotMix it is synthetic: no recorded simd traffic backs
// either mix.
var coldMix = []share{{"simulate", 15}, {"repeat", 3}, {"sweep", 1}, {"explain", 1}}

// coldShape is one paper-scale shape fresh serve-cold points cycle over.
type coldShape struct {
	k, d, n     int
	inter, sync bool
}

// coldStream is serve-cold's traffic: per block of 20, 15 fresh
// paper-scale simulates (k in {25,50}, D in {5,10}, N in {1,5,10}, four
// strategies, cycled so every 48 fresh points cover each shape once),
// 3 repeats of disk-tier keys, 1 sweep of 4 fresh points and 1 explain
// of the stall-attribution config with a fresh seed.
type coldStream struct {
	rng    *rand.Rand
	seed   uint64
	shapes []coldShape
	j      int
	pool   []call
	repeat int
	kinds  []string
}

func newColdStream(seed, firstSimSeed uint64) *coldStream {
	s := &coldStream{rng: rand.New(rand.NewPCG(seed, 0xc01d)), seed: firstSimSeed}
	for _, k := range []int{25, 50} {
		for _, d := range []int{5, 10} {
			for _, n := range []int{1, 5, 10} {
				for _, st := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
					s.shapes = append(s.shapes, coldShape{k, d, n, st[0], st[1]})
				}
			}
		}
	}
	s.rng.Shuffle(len(s.shapes), func(i, j int) { s.shapes[i], s.shapes[j] = s.shapes[j], s.shapes[i] })
	return s
}

// fresh returns a point no earlier request of the run has asked for.
func (s *coldStream) fresh() (service.SimulateRequest, core.Config) {
	sh := s.shapes[s.j%len(s.shapes)]
	s.j++
	s.seed++
	return point(sh.k, sh.d, sh.n, 1000, sh.inter, sh.sync, 0, 0, s.seed)
}

func (s *coldStream) freshCall() call {
	req, cfg := s.fresh()
	return simulateCall("simulate", req, cfg)
}

func (s *coldStream) next() call {
	if len(s.kinds) == 0 {
		s.kinds = kindBlock(s.rng, coldMix)
	}
	kind := s.kinds[0]
	s.kinds = s.kinds[1:]
	switch kind {
	case "repeat":
		c := s.pool[s.repeat%len(s.pool)]
		s.repeat++
		c.kind = "repeat"
		return c
	case "sweep":
		var reqs []service.SimulateRequest
		for j := 0; j < coldSweepPoints; j++ {
			req, _ := s.fresh()
			reqs = append(reqs, req)
		}
		return sweepCall(reqs)
	case "explain":
		s.seed++
		req, cfg := point(25, 5, 10, 1000, true, false, 300, 0.3, s.seed)
		return simulateCall("explain", req, cfg)
	default:
		return s.freshCall()
	}
}

// ---- load generation --------------------------------------------------

// outcome is one request's timing, as offsets from its phase's start.
type outcome struct {
	kind            string
	due, sent, done time.Duration
	slept           bool // the sender was idle and slept until due
	ok              bool
}

// newClient returns a client that opens at most conns connections to
// simd.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

func send(client *http.Client, base string, c call) (int, string, []byte, error) {
	var req *http.Request
	var err error
	if c.body == nil {
		req, err = http.NewRequest(http.MethodGet, base+c.path, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, base+c.path, bytes.NewReader(c.body))
	}
	if err != nil {
		return 0, "", nil, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

// loop drives one phase from senders goroutines, each with at most one
// request in flight. With rate > 0 it is an open loop: call i is due
// i/rate seconds after the start and is timed from then, so a stall
// shows in the requests queued behind it. With rate == 0 it is a closed
// loop that stops claiming calls after n calls (n > 0) or once dur has
// passed. next is called in claim order.
func loop(client *http.Client, base string, next func() call, senders int, rate float64, n int, dur time.Duration,
	observe func(call, int, string, []byte, error) bool) []outcome {
	var mu sync.Mutex
	var outs []outcome
	claimed := 0
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := claimed
				if (n > 0 && i >= n) || (n == 0 && time.Since(start) >= dur) {
					mu.Unlock()
					return
				}
				claimed++
				c := next()
				mu.Unlock()

				o := outcome{kind: c.kind}
				if rate > 0 {
					o.due = time.Duration(float64(i) / rate * float64(time.Second))
					if wait := o.due - time.Since(start); wait > 0 {
						sleepFor(wait)
						o.slept = true
					}
				}
				o.sent = time.Since(start)
				if rate == 0 {
					o.due = o.sent
				}
				status, xcache, body, err := send(client, base, c)
				o.done = time.Since(start)
				o.ok = observe(c, status, xcache, body, err)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// sleepFor blocks the calling thread for d at nanosecond resolution.
// time.Sleep will not do for the open loop: an idle Go runtime waits for
// its next timer in epoll_wait, whose timeout is whole milliseconds, so
// every idle sender would wake up to 1 ms late.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}

// ---- output checks ----------------------------------------------------

// checker checks every response as it arrives and keeps every
// sampleEvery-th distinct body for comparison against a reference.
type checker struct {
	mu       sync.Mutex
	r        *report
	seed     maphash.Seed
	seen     map[uint64]bool
	distinct int
	samples  []sampled
	xcache   map[string]int // "kind X-Cache" → count
}

type sampled struct {
	c    call
	body []byte
}

func newChecker(r *report) *checker {
	return &checker{r: r, seed: maphash.MakeSeed(), seen: make(map[uint64]bool), xcache: make(map[string]int)}
}

func (k *checker) observe(c call, status int, xcache string, body []byte, err error) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case err != nil:
		k.r.fail("%s: %v", c.kind, err)
		return false
	case status != http.StatusOK:
		k.r.fail("%s: HTTP %d: %.200s", c.kind, status, body)
		return false
	case c.want != nil && !bytes.Equal(body, c.want):
		k.r.fail("%s: body differs from the first answer for its key", c.kind)
		return false
	case c.kind == "explain" && !bytes.Contains(body, []byte(`"trace_truncated":false`)):
		k.r.fail("explain: response does not carry trace_truncated: false")
		return false
	case c.kind == "metrics":
		return true
	}
	if c.kind != "sweep" {
		k.xcache[c.kind+" "+xcache]++
	}
	if h := maphash.Bytes(k.seed, body); !k.seen[h] {
		k.seen[h] = true
		if k.distinct%sampleEvery == 0 {
			k.samples = append(k.samples, sampled{c, body})
		}
		k.distinct++
	}
	return true
}

// verify byte-compares every kept body against an in-process service
// built like the daemon answering the same request.
func (k *checker) verify(ref *service.Service) {
	ctx := context.Background()
	for _, s := range k.samples {
		got, err := answer(ctx, ref, s.c)
		switch {
		case err != nil:
			k.r.fail("reference %s: %v", s.c.kind, err)
		case !bytes.Equal(got, s.body):
			k.r.fail("%s %s: simd body differs from the reference service's", s.c.kind, s.c.body)
		}
	}
	k.r.note("bodies_compared", float64(len(k.samples)), "count")
}

// answer serves c in process on svc: the decode/dispatch the daemon's
// handler does, without HTTP.
func answer(ctx context.Context, svc *service.Service, c call) ([]byte, error) {
	switch c.kind {
	case "sweep":
		var req service.SweepRequest
		if err := decodeStrict(c.body, &req); err != nil {
			return nil, err
		}
		b, _, _, err := svc.Sweep(ctx, req)
		return b, err
	case "explain":
		var req service.SimulateRequest
		if err := decodeStrict(c.body, &req); err != nil {
			return nil, err
		}
		b, _, err := svc.Explain(ctx, req)
		return b, err
	default:
		var req service.SimulateRequest
		if err := decodeStrict(c.body, &req); err != nil {
			return nil, err
		}
		b, _, err := svc.Simulate(ctx, req)
		return b, err
	}
}

// decodeStrict decodes exactly one JSON value with no unknown fields,
// as simd's request decoder does.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// ---- the two serve workloads ------------------------------------------

func runServeHot(e *env) (*report, error) {
	r := &report{}
	s := newHotStream(e.opts.seed, int(hotRate))
	var setup []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// Set-up, setupPasses times: exec, /healthz, then one request per hot key
	// so the timed phase only ever hits the memory tier.
	for pass := 0; pass < setupPasses; pass++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(e.opts.simd, "-cache", "1024"); err != nil {
			return nil, err
		}
		fill := time.Now()
		if err := fillKeys(d, s.sims); err != nil {
			return nil, err
		}
		setup = append(setup, (took + time.Since(fill)).Seconds())
	}
	chk := newChecker(r)
	if err := measureServe(e, r, d, s.next, hotRate, hotMix, chk, setup); err != nil {
		return nil, err
	}
	hits := chk.xcache["simulate hit"]
	r.note("simulate_hit_ratio", float64(hits)/float64(max(1, hits+chk.xcache["simulate miss"]+chk.xcache["simulate shared"])), "ratio")
	ref := service.New(service.Options{})
	chk.verify(ref)
	return r, ref.Drain(context.Background())
}

// fillKeys asks for every call once, serially, and requires a 200.
func fillKeys(d *daemon, calls []call) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	for _, c := range calls {
		status, _, body, err := send(client, d.base, c)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("fill %s: HTTP %d: %.200s", c.kind, status, body)
		}
	}
	return nil
}

func runServeCold(e *env) (*report, error) {
	r := &report{}
	s := newColdStream(e.opts.seed, e.seedBase())
	dir := filepath.Join(e.tmp, "diskcache")
	args := []string{"-cache", "256", "-disk-cache-dir", dir}
	d, _, err := startDaemon(e.opts.simd, args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	// Fill the disk tier with the pool the repeats draw from, keeping each
	// first answer so a repeat can be checked byte for byte.
	if err := fillPool(d, s, e.scaled(coldPool, 10)); err != nil {
		return nil, err
	}
	// Set-up is the restart: exec to /healthz 200 on the filled
	// directory, which prices diskcache.Open's recovery scan.
	var setup []float64
	for pass := 0; pass < setupPasses; pass++ {
		if _, err := d.stop(); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = startDaemon(e.opts.simd, args...); err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	chk := newChecker(r)
	if err := measureServe(e, r, d, s.next, coldRate, coldMix, chk, setup); err != nil {
		return nil, err
	}
	disk := chk.xcache["repeat hit-disk"]
	r.note("repeat_disk_hit_ratio", float64(disk)/float64(max(1, s.repeat)), "ratio")
	ref := service.New(service.Options{})
	chk.verify(ref)
	return r, ref.Drain(context.Background())
}

// fillPool sends n fresh simulates, closed loop, and stores them with
// their answers as the stream's repeat pool.
func fillPool(d *daemon, s *coldStream, n int) error {
	pool := make([]call, n)
	for i := range pool {
		pool[i] = s.freshCall()
	}
	client := newClient(runtime.NumCPU())
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	answers := make(map[string][]byte)
	var firstErr error
	i := 0
	loop(client, d.base, func() call { i++; return pool[i-1] }, runtime.NumCPU(), 0, n, 0,
		func(c call, status int, _ string, body []byte, err error) bool {
			mu.Lock()
			defer mu.Unlock()
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %.200s", status, body)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("pool fill: %w", err)
			}
			answers[string(c.body)] = body
			return err == nil
		})
	if firstErr != nil {
		return firstErr
	}
	for i := range pool {
		pool[i].want = answers[string(pool[i].body)]
	}
	s.pool = pool
	return nil
}

// measureServe runs the nominal open-loop phase and the closed-loop
// capacity phase against d, stops d, and adds the end-to-end metrics.
// Latency percentiles and CPU per request come from the nominal phase,
// throughput from the capacity phase. The nominal phase sends whole
// blocks of mix, so its cost per request does not depend on where a
// partial block would have stopped.
func measureServe(e *env, r *report, d *daemon, next func() call, rate float64, mix []share, chk *checker, setup []float64) error {
	senders := runtime.NumCPU()
	client := newClient(senders)
	defer client.CloseIdleConnections()
	total := e.measure()
	nomDur := time.Duration(float64(total) * nominalShare)
	capDur := total - nomDur

	n := max(1, int(rate*nomDur.Seconds()))
	if block := blockLen(mix); n > block {
		n -= n % block
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	nom := loop(client, d.base, next, senders, rate, n, 0, chk.observe)
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	capacity := loop(client, d.base, next, senders, 0, 0, capDur, chk.observe)
	rss, err := d.stop()
	if err != nil {
		return err
	}
	r.Attempted += len(nom) + len(capacity)

	var lat, late []float64
	byKind := make(map[string][]float64)
	for _, o := range nom {
		lat = append(lat, ms(o.done-o.due))
		byKind[o.kind] = append(byKind[o.kind], ms(o.done-o.due))
		if o.slept {
			late = append(late, ms(o.sent-o.due))
		}
	}
	lateP50, lateP99 := 0.0, 0.0
	if len(late) > 0 {
		lateP50, lateP99 = median(late), percentile(late, 99)
	}
	if !e.opts.smoke && lateP50 > ms(genLateLimit) {
		return fmt.Errorf("load generator ran %.3f ms late at p50 (limit %v): the latencies would measure the scheduler, not simd",
			lateP50, genLateLimit)
	}
	completed := 0
	var capLat []float64
	for _, o := range capacity {
		if o.done <= capDur && o.ok {
			completed++
		}
		capLat = append(capLat, ms(o.done-o.sent))
	}
	endToEnd(r, setup, lat, float64(completed)/capDur.Seconds(), ms(cpu1-cpu0)/float64(len(nom)), rss)
	r.note("nominal_rate", rate, "1/s")
	r.note("gen_late_ms_p50", lateP50, "ms")
	r.note("gen_late_ms_p99", lateP99, "ms")
	r.note("gen_idle_share", float64(len(late))/float64(len(nom)), "ratio")
	r.note("capacity_p90_ms", percentile(capLat, 90), "ms")
	for _, k := range []string{"simulate", "repeat", "sweep", "explain", "metrics"} {
		if xs := byKind[k]; len(xs) > 0 {
			r.note(k+"_p50_ms", median(xs), "ms")
		}
	}
	return nil
}
