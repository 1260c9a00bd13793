package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestCanonicalJSONDeterministic(t *testing.T) {
	a, err := Default().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical encodings of equal configs differ:\n%s\n%s", a, b)
	}
	var m map[string]any
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("canonical encoding is not valid JSON: %v", err)
	}
}

func TestCanonicalJSONRefusesCallbacks(t *testing.T) {
	cases := map[string]func(*Config){
		"WorkloadFactory": func(c *Config) { c.WorkloadFactory = func(int) workload.Model { return &workload.Sequence{} } },
		"OnRequest":       func(c *Config) { c.OnRequest = func(disk.RequestTrace) {} },
	}
	for name, set := range cases {
		cfg := Default()
		set(&cfg)
		if _, err := cfg.CanonicalJSON(); err == nil {
			t.Errorf("%s: CanonicalJSON accepted a non-encodable config", name)
		}
	}
}

// TestHashSeparatesConfigs walks every exported leaf of Config from
// Default() and changes each one on its own: the hash must move, so no
// field that reaches the engine can be left out of the result-cache
// key. Structs are walked field by field; a nil pointer is allocated
// and walked; a slice gains one zero element, whose presence must move
// the hash, and that element is walked. Ints and uints step by 1,
// floats by 0.5 and bools flip (named enums included). A callback
// must make CanonicalJSON fail, and a pointer to a struct with no
// exported fields (the trace recorder) must leave the hash unchanged.
// Any other kind of field fails the test until it gets a rule here.
func TestHashSeparatesConfigs(t *testing.T) {
	cfg := Default()
	hash := func() string {
		t.Helper()
		h, err := cfg.Hash()
		if err != nil {
			t.Fatalf("Hash: %v", err)
		}
		return h
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		defer v.Set(saved)
		before := hash()
		moved := func() {
			if hash() == before {
				t.Errorf("changing %s does not change the hash", path)
			}
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.IsExported() {
					walk(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Pointer:
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			if !hasExportedField(v.Type().Elem()) {
				if hash() != before {
					t.Errorf("%s has no exported fields, yet setting it changes the hash", path)
				}
				return
			}
			walk(v.Elem(), path)
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			moved()
			walk(v.Index(v.Len()-1), path+"[]")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
			moved()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
			moved()
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
			moved()
		case reflect.Bool:
			v.SetBool(!v.Bool())
			moved()
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { panic("not called") }))
			if _, err := cfg.CanonicalJSON(); err == nil {
				t.Errorf("CanonicalJSON encodes a config whose %s is set", path)
			}
		default:
			t.Errorf("%s is a %s field, which has no hash rule here", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "Config")
}

// hasExportedField reports whether t is a struct with an exported
// field, or any other type.
func hasExportedField(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return true
	}
	for i := range t.NumField() {
		if t.Field(i).IsExported() {
			return true
		}
	}
	return false
}

// everyKey is a config that sets every key of the canonical encoding
// away from its zero value.
func everyKey() Config {
	cfg := Default()
	cfg.K, cfg.D, cfg.N = 6, 3, 4
	cfg.RunLengths = []int{40, 50, 60, 70, 80, 90}
	cfg.AdaptiveN, cfg.InterRun, cfg.Synchronized = true, true, true
	cfg.CacheBlocks = cache.Unlimited
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	cfg.MaxSimTime = sim.Ms(600_000)
	cfg.Disk = disk.ModernParams()
	cfg.Disk.Seek = disk.SeekAffineSqrt
	cfg.Disk.SeekSettle = sim.Ms(0.5)
	cfg.Disk.SeekSqrtCoeff = sim.Ms(0.02)
	cfg.Disk.Rotational = disk.RotPositional
	cfg.Disk.Discipline = disk.SCAN
	cfg.Placement = layout.Striped
	cfg.Admission = cache.Greedy
	cfg.RunPolicy = OracleRun
	cfg.Write = WriteConfig{Enabled: true, Shared: true, Disks: 2, BatchBlocks: 4, BufferBlocks: 16}
	cfg.Faults = &faults.Spec{Disks: []faults.DiskSpec{{
		Disk: 1, Slowdown: 2, SlowdownAtMs: 40, ReadErrorProb: 0.05, MaxRetries: 5,
		Outages: []faults.Window{{StartMs: 20, EndMs: 60}},
	}}}
	cfg.Seed = 9
	return cfg
}

// TestHashStable pins two hashes: the default configuration's, and
// that of a config whose canonical keys are all non-zero. Hashes key
// the simd result cache and the persistent disk tier, so they must
// stay stable across releases: a change here orphans every stored
// entry. The second pin also covers what the walk in
// TestHashSeparatesConfigs cannot see: a canonical key left unassigned
// whose value derives from another field, like unlimited_cache from
// cache_blocks, would encode as zero here.
func TestHashStable(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"Default()", Default(), "f73d2214ccff36df6b94020c4eeec1605dbb3cdcc61f9f35f0b9eeb791b4493a"},
		{"everyKey()", everyKey(), "5e0beb20e169575e1da34ea335cf00b404ad5a9ca1310ab3452400484481e79e"},
	} {
		got, err := c.cfg.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s.Hash() = %s, want %s", c.name, got, c.want)
		}
	}
	buf, err := everyKey().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var nonZero func(v any, path string)
	nonZero = func(v any, path string) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if k != "record_timeline" {
					nonZero(e, path+"."+k)
				}
			}
		case []any:
			if len(v) == 0 {
				t.Errorf("everyKey encodes %s empty", path)
			}
			for _, e := range v {
				nonZero(e, path+"[]")
			}
		default:
			if v == nil || v == false || v == 0.0 || v == "" {
				t.Errorf("everyKey encodes %s as %v", path, v)
			}
		}
	}
	nonZero(doc, "")
}

// TestResultJSONMatchesAggregate pins the shared schema to the engine's
// aggregate so the CLI and the daemon cannot drift apart silently.
func TestResultJSONMatchesAggregate(t *testing.T) {
	cfg := Default()
	cfg.K = 4
	cfg.D = 2
	cfg.BlocksPerRun = 50
	cfg.N = 2
	cfg.CacheBlocks = cfg.DefaultCache()
	agg, err := RunTrials(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	rj := NewResultJSON(agg)
	if rj.Trials != 2 || len(rj.Results) != 2 {
		t.Fatalf("trials = %d, results = %d, want 2/2", rj.Trials, len(rj.Results))
	}
	if rj.K != cfg.K || rj.D != cfg.D || rj.N != cfg.N || rj.CacheBlocks != cfg.CacheBlocks {
		t.Fatalf("shape mismatch: %+v vs config %+v", rj, cfg)
	}
	if rj.Strategy != cfg.StrategyName() {
		t.Fatalf("strategy %q, want %q", rj.Strategy, cfg.StrategyName())
	}
	if rj.MeanSeconds != agg.TotalTime.Mean() {
		t.Fatalf("mean seconds %v, want %v", rj.MeanSeconds, agg.TotalTime.Mean())
	}
	for i, tr := range rj.Results {
		res := agg.Results[i]
		if tr.Seed != res.Config.Seed {
			t.Errorf("trial %d seed %d, want %d", i, tr.Seed, res.Config.Seed)
		}
		if tr.TotalSeconds != res.TotalTime.Seconds() {
			t.Errorf("trial %d total %v, want %v", i, tr.TotalSeconds, res.TotalTime.Seconds())
		}
		if len(tr.Disks) != cfg.D {
			t.Errorf("trial %d has %d disks, want %d", i, len(tr.Disks), cfg.D)
		}
	}
}
