package plan

import (
	"testing"
)

func TestBuildCalibratedBasics(t *testing.T) {
	p, err := BuildCalibrated(job(25000, 1000, 5, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.InitialRuns != 25 || p.NumPasses() < 1 {
		t.Fatalf("plan shape: %+v", p)
	}
	last := p.Passes[p.NumPasses()-1]
	if last.RunsOut != 1 {
		t.Fatalf("plan does not finish:\n%s", p)
	}
}

func TestBuildCalibratedAvoidsInterRunPathology(t *testing.T) {
	// Deep multi-pass regime: few long runs per pass. The inter-run
	// policy starves there (lone runs per disk hoard the cache); the
	// calibrated planner must fall back to intra-run passes even though
	// the job allows inter-run. 64k blocks keeps the probe set cheap
	// while preserving the regime.
	j := job(1<<16, 256, 5, true)
	p, err := BuildCalibrated(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range p.Passes {
		if pass.InterRun && pass.FanIn < 2*j.D {
			t.Fatalf("calibrated plan kept inter-run at %d runs on %d disks:\n%s",
				pass.FanIn, j.D, p)
		}
	}
	// And its whole schedule must be no slower than the analytic plan's
	// when both are validated by simulation.
	analytic, err := Build(j)
	if err != nil {
		t.Fatal(err)
	}
	simTotal := func(pl Plan) float64 {
		total := 0.0
		for i := range pl.Passes {
			s, _, err := pl.SimulatePass(i, 1)
			if err != nil {
				t.Fatal(err)
			}
			total += s.Seconds()
		}
		return total
	}
	cal, ana := simTotal(p), simTotal(analytic)
	if cal > ana*1.1 {
		t.Fatalf("calibrated schedule (%.1fs) slower than analytic (%.1fs)\ncal:\n%s\nana:\n%s",
			cal, ana, p, analytic)
	}
}

func TestBuildCalibratedValidationAgreement(t *testing.T) {
	p, err := BuildCalibrated(job(60000, 500, 5, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Passes {
		simT, _, err := p.SimulatePass(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(simT) / float64(p.Passes[i].Estimated)
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("pass %d: simulated/estimated = %v:\n%s", i, ratio, p)
		}
	}
}

func TestBuildCalibratedSmallJob(t *testing.T) {
	p, err := BuildCalibrated(job(500, 1000, 5, true), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPasses() != 0 {
		t.Fatalf("tiny job needed %d passes", p.NumPasses())
	}
}

func TestBuildCalibratedValidation(t *testing.T) {
	if _, err := BuildCalibrated(job(0, 100, 5, false), 1); err == nil {
		t.Fatal("bad job accepted")
	}
}

func TestProbeLengthBounds(t *testing.T) {
	j := job(1<<30, 1024, 5, true)
	// Huge pass length: bounded by budget/geometry.
	l := j.probeLength(1000, 1<<40)
	if l > 300 || l < 50 {
		t.Fatalf("probe length for 1000 runs = %d", l)
	}
	// Small pass length: probe uses it directly.
	if got := j.probeLength(10, 120); got != 120 {
		t.Fatalf("short-pass probe length = %d", got)
	}
	// Never below the floor.
	if got := j.probeLength(100000, 1<<40); got < 50 {
		t.Fatalf("probe floor violated: %d", got)
	}
}
