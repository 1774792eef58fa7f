package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bvap"
	"bvap/internal/rebar"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},
		{99, 90, 0, false}, // rank 90 leaves 9 beyond
		{110, 90, 99, true},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{1000, 99, 990, true},
		{999, 99, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	l := latencies{ms: seq(50)}
	if _, err := l.p("x", 90); err == nil {
		t.Error("p90 of 50 samples was reported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if s := spread(seq(10)); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g", s)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One lane at 1000 ops/s: op 0 stalls for 50 ms, so ops 1..3, due 1,
	// 2 and 3 ms after it, are sent late and must be charged the wait.
	const stall = 50 * time.Millisecond
	lat, late, err := openLoop(4, 1, 1000, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		floor := float64(stall-time.Duration(i)*time.Millisecond) / 1e6
		if lat.ms[i] < floor || late.ms[i] < floor {
			t.Errorf("op %d: latency %.2f ms, late %.2f ms; both should be at least %.2f ms", i, lat.ms[i], late.ms[i], floor)
		}
	}
	if lat.ms[0] < float64(stall)/1e6 {
		t.Errorf("op 0 latency %.2f ms < its own %v stall", lat.ms[0], stall)
	}
}

func TestMeasureSharesTheRunByTime(t *testing.T) {
	// A 2 ms unit and a 20 ms unit share the run alike, so the short one
	// repeats about ten times as often; a half-share meter gets half the
	// time; a meter with a minimum above what its share allows runs on
	// after the time is spent until it has it.
	sleeper := func(d time.Duration, share float64, minReps int) *meter {
		return &meter{phase: "scan", share: share, minReps: minReps, unit: func(int64) error {
			time.Sleep(d)
			return nil
		}}
	}
	short, long, half := sleeper(2*time.Millisecond, 0, 1), sleeper(20*time.Millisecond, 0, 1), sleeper(2*time.Millisecond, 0.5, 1)
	greedy := sleeper(100*time.Millisecond, 0, 8)
	b := &bench{seconds: 0.6, gc: map[string]gcWork{}}
	if err := b.measure([]*meter{short, long, half, greedy}); err != nil {
		t.Fatal(err)
	}
	if r := float64(len(short.reps)) / float64(len(long.reps)); r < 4 || r > 12 {
		t.Errorf("short/long repetitions = %d/%d, want about 10", len(short.reps), len(long.reps))
	}
	if r := half.spent.Seconds() / short.spent.Seconds(); r < 0.35 || r > 0.65 {
		t.Errorf("half-share meter spent %v against %v, want about half", half.spent, short.spent)
	}
	if len(greedy.reps) != 8 {
		t.Errorf("greedy meter ran %d repetitions, want its minimum 8", len(greedy.reps))
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 12, End: 18},  // grandchild: not the parent's
		{ID: 6, Parent: 0, Start: 50, End: 60},  // sibling phase
	}
	if got := selfTime(spans, 1); got != 60 {
		t.Errorf("self time of 1 = %d, want 100 - 30 - 10 = 60", got)
	}
	if got := selfTime(spans, 2); got != 14 {
		t.Errorf("self time of 2 = %d, want 20 - 6 = 14", got)
	}
	if got := selfTime(spans, 6); got != 10 {
		t.Errorf("self time of a leaf = %d, want its duration 10", got)
	}
	tr := newTracer()
	tr.do("outer", 0, 1, func() { tr.do("inner", 1, 1, func() { time.Sleep(time.Millisecond) }) })
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || selfTime(got, got[0].ID) > got[0].dur()-got[1].dur() {
		t.Errorf("recorded spans %+v", got)
	}
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestLogsPatternsMatchRebarGroup(t *testing.T) {
	s, err := rebar.LoadFile(filepath.Join("..", "testdata", "rebar", "corpus-logs.toml"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range s.Cases {
		got = append(got, c.Regex)
	}
	if len(got) != len(logsPatterns) {
		t.Fatalf("corpus-logs has %d regexes, logs-dense %d", len(got), len(logsPatterns))
	}
	for i := range got {
		if got[i] != logsPatterns[i] {
			t.Errorf("regex %d: corpus-logs %q, logs-dense %q", i, got[i], logsPatterns[i])
		}
	}
}

func TestOracleAgreesWithEngine(t *testing.T) {
	w, err := buildWorkload("logs-dense", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := bvap.MustCompile(w.patterns)
	if err := sameMatches(eng.FindAll(w.stream), ref.stream); err != nil {
		t.Fatal(err)
	}
	nca, err := oracleMatches("nca", w.patterns, w.stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMatches(nca, ref.stream); err != nil {
		t.Fatalf("nca vs swmatch: %v", err)
	}
}

func TestWrongPinFailsTheRun(t *testing.T) {
	o := options{workload: "logs-dense", seed: 1, seconds: 0.5, tiny: true,
		pins: filepath.Join("testdata", "wrong_pins.json"), log: io.Discard}
	res, err := run(o)
	if err == nil {
		t.Fatal("run with a wrong pinned count succeeded")
	}
	if res == nil || res.Correct {
		t.Fatalf("run with a wrong pinned count reported %+v", res)
	}
}

// TestSmokeEveryMetricPrinted runs every workload at a tiny size, untraced
// and traced, and checks that each metric BENCHMARK.json names is printed
// with its unit.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at a tiny size")
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The pins are for full-size inputs; the tiny run is checked against
	// the oracles alone.
	noPins := filepath.Join(t.TempDir(), "pins.json")
	if err := os.WriteFile(noPins, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 0.5, trace: trace, tiny: true,
				pins: noPins, spans: filepath.Join(t.TempDir(), "spans.json"), log: io.Discard}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, n)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, n, got.Unit, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", name, trace, n)
				}
			}
		}
	}
}
