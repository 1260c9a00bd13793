package extsort

import (
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"
)

// TestForecastMatchesActualMerge is the forecasting theorem in test
// form: the trace predicted from last keys alone equals the trace the
// real merge records.
func TestForecastMatchesActualMerge(t *testing.T) {
	cfg := testConfig()
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		data := randomData(seed*100+41, 300)
		_, st, store := sortAll(t, cfg, data)
		actual := onlyGroup(t, st).Trace
		forecast, err := ForecastTrace(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		if len(forecast.Runs) != len(actual.Runs) {
			t.Fatalf("seed %d: forecast %d entries, actual %d",
				seed, len(forecast.Runs), len(actual.Runs))
		}
		for i := range forecast.Runs {
			if forecast.Runs[i] != actual.Runs[i] {
				t.Fatalf("seed %d: traces diverge at %d: forecast %d, actual %d",
					seed, i, forecast.Runs[i], actual.Runs[i])
			}
		}
	}
}

func TestForecastMatchesWithDuplicateKeys(t *testing.T) {
	// Heavy duplication stresses the tie-break rules.
	cfg := testConfig()
	var data []byte
	for i := 0; i < 240; i++ {
		rec := make([]byte, 8)
		binary.BigEndian.PutUint64(rec, uint64(i%7))
		data = append(data, rec...)
	}
	_, st, store := sortAll(t, cfg, data)
	forecast, err := ForecastTrace(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(forecast.Runs, onlyGroup(t, st).Trace.Runs) {
		t.Fatal("duplicate-key traces diverge")
	}
}

func TestForecastMatchesReplacementSelection(t *testing.T) {
	cfg := testConfig()
	cfg.Formation = ReplacementSelection
	data := randomData(77, 500)
	_, st, store := sortAll(t, cfg, data)
	forecast, err := ForecastTrace(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(forecast.Runs, onlyGroup(t, st).Trace.Runs) {
		t.Fatal("rs traces diverge")
	}
}

func TestForecastPropertyQuick(t *testing.T) {
	cfg := testConfig()
	seed := uint64(9000)
	err := quick.Check(func(sz uint16) bool {
		n := int(sz%200) + 1
		seed++
		_, st, store := sortAll(t, cfg, randomData(seed, n))
		forecast, err := ForecastTrace(cfg, store)
		if err != nil {
			return false
		}
		return slices.Equal(forecast.Runs, onlyGroup(t, st).Trace.Runs)
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForecastClosesEveryReader(t *testing.T) {
	cfg := testConfig()
	var c readerCount
	store := countingStore{NewMemStore(), &c}
	in, err := NewSliceReader(randomData(57, 100), cfg.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FormRuns(cfg, in, store); err != nil {
		t.Fatal(err)
	}
	if _, err := ForecastTrace(cfg, store); err != nil {
		t.Fatal(err)
	}
	if c.open != 0 || c.peak != 1 || c.opened != store.NumRuns() {
		t.Fatalf("%d readers left open, peak %d, opened %d of %d runs",
			c.open, c.peak, c.opened, store.NumRuns())
	}
}

func TestForecastEmptyStore(t *testing.T) {
	forecast, err := ForecastTrace(testConfig(), NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(forecast.Runs) != 0 {
		t.Fatal("empty store produced entries")
	}
}

func TestForecastRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.RecordSize = 0
	if _, err := ForecastTrace(cfg, NewMemStore()); err == nil {
		t.Fatal("bad config accepted")
	}
}
