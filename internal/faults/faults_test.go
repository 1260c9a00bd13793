package faults

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		d       int
		wantSub string
	}{
		{"disk out of range", Spec{Disks: []DiskSpec{{Disk: 5}}}, 5, "targets disk 5, want [0, D=5)"},
		{"negative disk", Spec{Disks: []DiskSpec{{Disk: -1}}}, 5, "targets disk -1"},
		{"descending disks", Spec{Disks: []DiskSpec{{Disk: 2}, {Disk: 1}}}, 5, "disk 1 out of order"},
		{"duplicate disks", Spec{Disks: []DiskSpec{{Disk: 1}, {Disk: 1}}}, 5, "disk 1 out of order"},
		{"slowdown below one", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 0.9}}}, 5, "slowdown 0.9 < 1"},
		{"negative slowdown onset", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 2, SlowdownAtMs: -5}}}, 5, "slowdown_at_ms -5 is negative"},
		{"negative probability", Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: -0.2}}}, 5, "read error probability -0.2 not in [0, 1]"},
		{"probability above one", Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: 2}}}, 5, "read error probability 2 not in [0, 1]"},
		{"negative retries", Spec{Disks: []DiskSpec{{Disk: 0, MaxRetries: -1}}}, 5, "max retries -1 is negative"},
		{"negative outage start", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: -1, EndMs: 5}}}}}, 5, "outage 0 starts at -1 ms"},
		{"empty outage", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: 5, EndMs: 5}}}}}, 5, "outage 0 ends at 5 ms"},
		{"inverted outage", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: 5, EndMs: 2}}}}}, 5, "outage 0 ends at 2 ms"},
		{"overlapping outages", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: 0, EndMs: 10}, {StartMs: 9, EndMs: 20}}}}}, 5, "outage windows overlap at 9 ms"},
		{"slowdown above cap", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 1e306}}}, 5, "slowdown 1e+306 not in [1, 1e+06]"},
		{"infinite slowdown", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: math.Inf(1)}}}, 5, "slowdown +Inf not in [1, 1e+06]"},
		{"NaN slowdown", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: math.NaN()}}}, 5, "slowdown NaN not in [1, 1e+06]"},
		{"infinite slowdown onset", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 2, SlowdownAtMs: math.Inf(1)}}}, 5, "slowdown_at_ms +Inf is not finite"},
		{"NaN slowdown onset", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 2, SlowdownAtMs: math.NaN()}}}, 5, "slowdown_at_ms NaN is not finite"},
		{"NaN probability", Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: math.NaN()}}}, 5, "read error probability NaN not in [0, 1]"},
		{"endless outage", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: 0, EndMs: math.Inf(1)}}}}}, 5, "outage 0 [0, +Inf) ms is not finite"},
		{"NaN outage start", Spec{Disks: []DiskSpec{{Disk: 0, Outages: []Window{{StartMs: math.NaN(), EndMs: 5}}}}}, 5, "outage 0 [NaN, 5) ms is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.d)
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidateAcceptsHealthyAndBoundarySpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"zero-value disk entry", Spec{Disks: []DiskSpec{{Disk: 0}}}},
		{"slowdown exactly one", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 1}}}},
		{"slowdown at cap", Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: MaxSlowdown}}}},
		{"probability bounds", Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: 1}, {Disk: 1}}}},
		{"adjacent outages", Spec{Disks: []DiskSpec{{Disk: 3, Outages: []Window{{StartMs: 0, EndMs: 10}, {StartMs: 10, EndMs: 20}}}}}},
		{"all disks faulted", Spec{Disks: []DiskSpec{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 3}, {Disk: 4}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(5); err != nil {
				t.Fatalf("Validate rejected a valid spec: %v", err)
			}
		})
	}
}

func TestSlowdownPhasesIn(t *testing.T) {
	in := NewInjector(Spec{Disks: []DiskSpec{{Disk: 1, Slowdown: 2.5, SlowdownAtMs: 100}}}, 3, rng.New(1))
	di := in.Disk(1)
	if f := di.Slowdown(sim.Ms(99)); f != 1 {
		t.Fatalf("slowdown %v before onset, want 1", f)
	}
	if f := di.Slowdown(sim.Ms(100)); f != 2.5 {
		t.Fatalf("slowdown %v at onset, want 2.5", f)
	}
	if in.Disk(0) != nil || in.Disk(2) != nil {
		t.Fatal("healthy disks have non-nil injectors")
	}
	if in.Disk(99) != nil {
		t.Fatal("out-of-range disk has a non-nil injector")
	}
	var nilInj *Injector
	if nilInj.Disk(0) != nil {
		t.Fatal("nil injector returned a disk injector")
	}
}

func TestOutageWait(t *testing.T) {
	in := NewInjector(Spec{Disks: []DiskSpec{{
		Disk:    0,
		Outages: []Window{{StartMs: 10, EndMs: 20}, {StartMs: 30, EndMs: 35}},
	}}}, 1, rng.New(1))
	di := in.Disk(0)
	cases := []struct {
		at   float64
		want float64
	}{
		{0, 0}, {9.5, 0}, {10, 10}, {15, 5}, {19.999, 0.001},
		{20, 0}, {25, 0}, {30, 5}, {34, 1}, {35, 0}, {100, 0},
	}
	for _, tc := range cases {
		got := float64(di.OutageWait(sim.Ms(tc.at)))
		if diff := got - tc.want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("OutageWait(%v ms) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestDrawErrorDeterministicAndBounded(t *testing.T) {
	draw := func() []bool {
		in := NewInjector(Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: 0.3}}}, 1, rng.New(42))
		di := in.Disk(0)
		out := make([]bool, 200)
		for i := range out {
			out[i] = di.DrawError()
		}
		return out
	}
	a, b := draw(), draw()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical injectors", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("%d/%d errors at p=0.3: degenerate stream", hits, len(a))
	}

	sure := NewInjector(Spec{Disks: []DiskSpec{{Disk: 0, ReadErrorProb: 1}}}, 1, rng.New(1)).Disk(0)
	if !sure.DrawError() {
		t.Fatal("p=1 did not draw an error")
	}
	never := NewInjector(Spec{Disks: []DiskSpec{{Disk: 0, Slowdown: 2}}}, 1, rng.New(1)).Disk(0)
	if never.DrawError() {
		t.Fatal("p=0 drew an error")
	}
}

func TestMaxRetriesDefault(t *testing.T) {
	in := NewInjector(Spec{Disks: []DiskSpec{
		{Disk: 0, ReadErrorProb: 0.1},
		{Disk: 1, ReadErrorProb: 0.1, MaxRetries: 7},
	}}, 2, rng.New(1))
	if got := in.Disk(0).MaxRetries(); got != DefaultMaxRetries {
		t.Fatalf("default max retries = %d, want %d", got, DefaultMaxRetries)
	}
	if got := in.Disk(1).MaxRetries(); got != 7 {
		t.Fatalf("max retries = %d, want 7", got)
	}
}

func TestUnreadableErrorIs(t *testing.T) {
	err := error(&UnreadableError{Disk: 2, Start: 480, Attempts: 4})
	if !errors.Is(err, ErrUnreadable) {
		t.Fatal("UnreadableError does not match ErrUnreadable")
	}
	want := "faults: disk 2 unreadable at block 480 after 4 attempts"
	if err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
	var ue *UnreadableError
	if !errors.As(err, &ue) || ue.Disk != 2 {
		t.Fatal("errors.As failed to recover *UnreadableError")
	}
}
