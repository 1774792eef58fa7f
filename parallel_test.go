package bvap

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"bvap/internal/parascan"
	"bvap/internal/telemetry"
)

// metricValue returns the value of the named sample (matching all given
// labels) from a registry snapshot, or 0 when absent.
func metricValue(reg *telemetry.Registry, name string, labels map[string]string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	return 0
}

func TestSeamWindow(t *testing.T) {
	cases := []struct {
		patterns []string
		want     int
		bounded  bool
	}{
		{[]string{"ab{3,6}c"}, 8, true},
		{[]string{"abc"}, 3, true},
		{[]string{"a{10}", "b{2,4}c"}, 10, true},
		{[]string{"^ab{1,4}c"}, 6, true},
		{[]string{"a+b"}, 0, false},
		{[]string{"abc", "a*"}, 0, false},
		{[]string{"a{3,}"}, 0, false},
	}
	for _, tc := range cases {
		e := MustCompile(tc.patterns)
		w, ok := e.SeamWindow()
		if w != tc.want || ok != tc.bounded {
			t.Errorf("SeamWindow(%q) = %d, %v; want %d, %v", tc.patterns, w, ok, tc.want, tc.bounded)
		}
		// Cached second call agrees.
		if w2, ok2 := e.SeamWindow(); w2 != w || ok2 != ok {
			t.Errorf("SeamWindow(%q) second call diverged", tc.patterns)
		}
	}
}

func TestSeamWindowIgnoresUnsupported(t *testing.T) {
	// An unsupported pattern (here: one that blows the per-set STE budget or
	// uses syntax the hardware mapping rejects) never matches, so it must not
	// constrain the seam window. Unsupported-ness is asserted, not assumed.
	e := MustCompile([]string{"ab{2}c", "a{9999999}"})
	rep := e.Report()
	if rep.Patterns[1].Supported {
		t.Skip("second pattern unexpectedly supported; pick a harsher one")
	}
	if w, ok := e.SeamWindow(); !ok || w != 4 {
		t.Fatalf("SeamWindow = %d, %v; want 4, true (unsupported pattern must not constrain)", w, ok)
	}
}

func TestPatternReach(t *testing.T) {
	cases := []struct {
		pattern string
		reach   int
		bounded bool
	}{
		{"abc", 3, true},
		{"(ab){3}c", 7, true},
		{"a|bcd", 3, true},
		{"a{2,5}", 5, true},
		{"a*bc", 0, false},
		{"a{3,}", 0, false},
	}
	for _, tc := range cases {
		r, ok, err := PatternReach(tc.pattern)
		if err != nil {
			t.Fatalf("PatternReach(%q): %v", tc.pattern, err)
		}
		if r != tc.reach || ok != tc.bounded {
			t.Errorf("PatternReach(%q) = %d, %v; want %d, %v", tc.pattern, r, ok, tc.reach, tc.bounded)
		}
	}
	if _, _, err := PatternReach("a{2,1}"); err == nil {
		t.Error("PatternReach accepted invalid pattern")
	}
}

func TestFindAllParallelFallbackReasons(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name     string
		patterns []string
		input    string
		opts     ParallelOptions
		reason   string
	}{
		{"unbounded", []string{"a+b"}, strings.Repeat("aab", 50), ParallelOptions{ChunkSize: 16}, "unbounded_reach"},
		{"short", []string{"ab{2}c"}, "xabbcx", ParallelOptions{ChunkSize: 64}, "short_input"},
		{"window", []string{"ab{30,60}c"}, strings.Repeat("x", 200), ParallelOptions{ChunkSize: 32}, "window_dominates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tc.opts.Metrics = reg
			e := MustCompile(tc.patterns)
			got, err := e.FindAllParallel(ctx, []byte(tc.input), &tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := e.FindAll([]byte(tc.input)); !matchesEqual(got, want) {
				t.Fatalf("fallback path diverged from FindAll:\npar %v\nseq %v", got, want)
			}
			if v := metricValue(reg, parascan.MetricFallbacks, map[string]string{"reason": tc.reason}); v != 1 {
				t.Fatalf("fallback_total{reason=%q} = %v, want 1 (snapshot %+v)", tc.reason, v, reg.Snapshot())
			}
			if v := metricValue(reg, parascan.MetricChunks, nil); v != 0 {
				t.Fatalf("chunks_scanned_total = %v on a fallback, want 0", v)
			}
		})
	}
}

func TestFindAllParallelTelemetry(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2}c"}) // seam window 4
	if w, ok := e.SeamWindow(); !ok || w != 4 {
		t.Fatalf("SeamWindow = %d, %v, want 4, true", w, ok)
	}
	input := []byte(strings.Repeat("xabbcx", 20)) // 120 bytes
	reg := telemetry.NewRegistry()
	got, err := e.FindAllParallel(ctx, input, &ParallelOptions{Workers: 3, ChunkSize: 30, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if want := e.FindAll(input); !matchesEqual(got, want) {
		t.Fatalf("diverged:\npar %v\nseq %v", got, want)
	}
	// 120 bytes in 30-byte chunks → 4 chunks; every chunk but the first
	// replays the full 4-byte window.
	if v := metricValue(reg, parascan.MetricChunks, nil); v != 4 {
		t.Errorf("chunks_scanned_total = %v, want 4", v)
	}
	if v := metricValue(reg, parascan.MetricSeamReplays, nil); v != 3 {
		t.Errorf("seam_replays_total = %v, want 3", v)
	}
	if v := metricValue(reg, parascan.MetricSeamReplayBytes, nil); v != 12 {
		t.Errorf("seam_replay_bytes_total = %v, want 12", v)
	}
	if v := metricValue(reg, parascan.MetricWorkersBusy, nil); v != 0 {
		t.Errorf("workers_busy = %v after completion, want 0", v)
	}
}

func TestScanBatchBudget(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab"})
	inputs := [][]byte{
		[]byte(strings.Repeat("ab", 10)),  // 20 bytes, within budget
		[]byte(strings.Repeat("ab", 100)), // 200 bytes, over budget
		[]byte(strings.Repeat("ab", 10)),  // fresh budget again: must succeed
	}
	results, err := e.ScanBatch(ctx, inputs, &BatchOptions{
		Workers: 1, // serialize so pooled-stream reuse is guaranteed exercised
		Budget:  Budget{MaxSymbols: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("input %d: unexpected error %v (budget must reset per input)", i, results[i].Err)
		}
		if want := e.FindAll(inputs[i]); !matchesEqual(results[i].Matches, want) {
			t.Fatalf("input %d diverged", i)
		}
	}
	var be *BudgetError
	if !errors.As(results[1].Err, &be) || !errors.Is(results[1].Err, ErrBudget) {
		t.Fatalf("input 1: err = %v, want *BudgetError", results[1].Err)
	}
	if be.Resource != "symbols" || be.Limit != 50 {
		t.Fatalf("input 1: BudgetError = %+v", be)
	}
	// Partial matches up to the budget are retained.
	if len(results[1].Matches) == 0 {
		t.Fatal("input 1: no partial matches before budget trip")
	}
	for _, m := range results[1].Matches {
		if m.End >= 50 {
			t.Fatalf("input 1: match past budget boundary: %+v", m)
		}
	}
}

func TestScanBatchCancellation(t *testing.T) {
	e := MustCompile([]string{"ab{2}c"})
	inputs := make([][]byte, 64)
	for i := range inputs {
		inputs[i] = []byte(strings.Repeat("xabbc", 200))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: nothing may start
	results, err := e.ScanBatch(ctx, inputs, &BatchOptions{Workers: 4})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("len(results) = %d, want %d", len(results), len(inputs))
	}
	for i, r := range results {
		if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("input %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestFindAllParallelCancellation(t *testing.T) {
	e := MustCompile([]string{"ab{2}c"})
	input := []byte(strings.Repeat("xabbc", 2000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.FindAllParallel(ctx, input, &ParallelOptions{Workers: 2, ChunkSize: 256})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamResetRestoresBudget is the regression test for the Reset
// contract: Reset clears consumed symbols (a pooled stream starts every
// input with the full allowance) while the configured limit survives.
func TestStreamResetRestoresBudget(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab"})
	s := e.NewStream()
	s.SetBudget(Budget{MaxSymbols: 10})

	long := []byte(strings.Repeat("ab", 20))
	_, err := s.ScanContext(ctx, long)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("first scan err = %v, want *BudgetError", err)
	}

	// Without Reset, consumption is cumulative: the very next scan trips
	// immediately.
	if _, err := s.ScanContext(ctx, []byte("ab")); !errors.As(err, &be) {
		t.Fatalf("cumulative scan err = %v, want *BudgetError", err)
	}

	// Reset restores the full allowance but keeps the limit.
	s.Reset()
	ms, err := s.ScanContext(ctx, []byte("abababab")) // 8 ≤ 10
	if err != nil {
		t.Fatalf("post-Reset scan err = %v, want nil", err)
	}
	if len(ms) != 4 {
		t.Fatalf("post-Reset matches = %v, want 4 matches", ms)
	}
	// The limit itself survived: 12 > 10 trips again.
	s.Reset()
	if _, err := s.ScanContext(ctx, long); !errors.As(err, &be) {
		t.Fatalf("limit did not survive Reset: err = %v", err)
	}
}

// TestShardResilienceLadder drives the detect/retry/degrade ladder with the
// test-only corruption hook: a shard whose first attempt is corrupted is
// retried; a shard corrupted on every attempt degrades to the reference
// matcher's output. Either way the final matches equal FindAll's.
func TestShardResilienceLadder(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2}c", "b{2}"})
	input := []byte("xabbcxbbx" + strings.Repeat("abbc", 5))
	want := e.FindAll(input)

	defer func() { shardCorruptHook = nil }()

	t.Run("retry-recovers", func(t *testing.T) {
		shardCorruptHook = func(in []byte, attempt int, ms []Match) []Match {
			if attempt == 0 && len(ms) > 0 {
				return ms[:len(ms)-1] // drop a match → cross-check mismatch
			}
			return ms
		}
		reg := telemetry.NewRegistry()
		results, err := e.ScanBatch(ctx, [][]byte{input}, &BatchOptions{
			Workers:    1,
			Metrics:    reg,
			Resilience: &ShardResilience{CrossCheck: true, MaxRetries: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Retries != 1 {
			t.Fatalf("Retries = %d, want 1", r.Retries)
		}
		if !matchesEqual(r.Matches, want) {
			t.Fatalf("recovered matches diverged:\ngot  %v\nwant %v", r.Matches, want)
		}
		if v := metricValue(reg, parascan.MetricShardRetries, nil); v != 1 {
			t.Errorf("shard_retries_total = %v, want 1", v)
		}
		if v := metricValue(reg, parascan.MetricShardFallbacks, nil); v != 0 {
			t.Errorf("shard_fallbacks_total = %v, want 0", v)
		}
	})

	t.Run("degrade-to-reference", func(t *testing.T) {
		shardCorruptHook = func(in []byte, attempt int, ms []Match) []Match {
			return append(ms[:0:0], append(ms, Match{Pattern: 0, End: 0})...)
		}
		reg := telemetry.NewRegistry()
		results, err := e.ScanBatch(ctx, [][]byte{input}, &BatchOptions{
			Workers:    1,
			Metrics:    reg,
			Resilience: &ShardResilience{CrossCheck: true, MaxRetries: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Retries != 2 {
			t.Fatalf("Retries = %d, want 2", r.Retries)
		}
		// Degraded output comes from the independent reference matcher and
		// must still equal the oracle (both are correct implementations).
		if !matchesEqual(r.Matches, want) {
			t.Fatalf("degraded matches diverged:\ngot  %v\nwant %v", r.Matches, want)
		}
		if v := metricValue(reg, parascan.MetricShardRetries, nil); v != 2 {
			t.Errorf("shard_retries_total = %v, want 2", v)
		}
		if v := metricValue(reg, parascan.MetricShardFallbacks, nil); v != 1 {
			t.Errorf("shard_fallbacks_total = %v, want 1", v)
		}
	})

	t.Run("clean-run-no-retries", func(t *testing.T) {
		shardCorruptHook = nil
		results, err := e.ScanBatch(ctx, [][]byte{input}, &BatchOptions{
			Workers:    1,
			Resilience: &ShardResilience{CrossCheck: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := results[0]; r.Retries != 0 || !matchesEqual(r.Matches, want) {
			t.Fatalf("clean resilient run: %+v", r)
		}
	})
}

// TestEngineSharedConcurrently is the race/stress satellite: 16 goroutines
// hammer one shared Engine with a mix of ScanBatch, FindAllParallel,
// NewStream+Step, instrumented streams, Report and SeamWindow. Run under
// -race (CI does, across GOMAXPROCS 1/2/8) this pins the
// Engine-immutable-after-Compile contract.
func TestEngineSharedConcurrently(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2,5}c", "b{3}", "^ab"})
	input := []byte(strings.Repeat("xabbbcxbbb", 30))
	want := e.FindAll(input)
	batch := [][]byte{input, input[:100], input[100:], nil}
	wantBatch := make([][]Match, len(batch))
	for i, in := range batch {
		wantBatch[i] = e.FindAll(in)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reg := telemetry.NewRegistry()
			for iter := 0; iter < 20; iter++ {
				switch (g + iter) % 4 {
				case 0:
					results, err := e.ScanBatch(ctx, batch, &BatchOptions{Workers: 2, Metrics: reg})
					if err != nil {
						errc <- err
						return
					}
					for i, r := range results {
						if r.Err != nil || !matchesEqual(r.Matches, wantBatch[i]) {
							errc <- fmt.Errorf("goroutine %d: batch input %d diverged", g, i)
							return
						}
					}
				case 1:
					got, err := e.FindAllParallel(ctx, input, &ParallelOptions{Workers: 2, ChunkSize: 64, Metrics: reg})
					if err != nil {
						errc <- err
						return
					}
					if !matchesEqual(got, want) {
						errc <- fmt.Errorf("goroutine %d: FindAllParallel diverged", g)
						return
					}
				case 2:
					s := e.NewStream()
					s.Instrument(reg)
					n := 0
					for _, b := range input {
						n += len(s.Step(b))
					}
					if n != len(want) {
						errc <- fmt.Errorf("goroutine %d: stream count %d, want %d", g, n, len(want))
						return
					}
				default:
					if rep := e.Report(); rep.TotalSTEs == 0 {
						errc <- fmt.Errorf("goroutine %d: empty report", g)
						return
					}
					if _, ok := e.SeamWindow(); !ok {
						errc <- fmt.Errorf("goroutine %d: SeamWindow unbounded", g)
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanBatchSteadyStateAllocs is the allocation-regression satellite:
// once the stream pool is warm, per-input cost is pooled — the per-batch
// allocation count must not grow with the number of inputs (matchless
// inputs, so no match storage is charged).
func TestScanBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts randomly; allocation counts are meaningless")
	}
	ctx := context.Background()
	e := MustCompile([]string{"ab{2}c"})
	// sync.Pool is emptied by GC; disable collection during measurement so
	// the test observes the engine's allocation behaviour, not the
	// collector's pool-clearing schedule.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mk := func(n int) [][]byte {
		inputs := make([][]byte, n)
		for i := range inputs {
			inputs[i] = []byte(strings.Repeat("x", 256)) // no matches
		}
		return inputs
	}
	small, large := mk(8), mk(64)
	opts := &BatchOptions{Workers: 1}
	run := func(inputs [][]byte) float64 {
		return testing.AllocsPerRun(100, func() {
			results, err := e.ScanBatch(ctx, inputs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range results {
				if results[i].Err != nil || results[i].Matches != nil {
					t.Fatal("unexpected result")
				}
			}
		})
	}
	run(small) // warm the pool
	a8, a64 := run(small), run(large)
	// Fixed per-batch overhead (results slice, done slice, closure, worker
	// bookkeeping) is allowed; per-input allocations are not. Slack of 8
	// absorbs incidental GC clearing the sync.Pool mid-measurement.
	if a64 > a8+8 {
		t.Fatalf("ScanBatch allocations grow with input count: 8 inputs → %.1f allocs, 64 inputs → %.1f", a8, a64)
	}
	t.Logf("ScanBatch allocs/batch: 8 inputs %.1f, 64 inputs %.1f", a8, a64)
}

// TestFindAllParallelSteadyStateAllocs is the chunk-parallel counterpart:
// once the stream pool is warm, chunk scans are pooled, so the allocations
// of one FindAllParallel call must not grow with the number of chunks
// (match-free input, so no match storage is charged).
func TestFindAllParallelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts randomly; allocation counts are meaningless")
	}
	ctx := context.Background()
	e := MustCompile([]string{"ab{2}c"})
	// As above: no GC, so the pool is never emptied mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := &ParallelOptions{Workers: 2, ChunkSize: 4096}
	mk := func(chunks int) []byte {
		return []byte(strings.Repeat("x", chunks*opts.ChunkSize)) // no matches
	}
	small, large := mk(8), mk(64)
	run := func(input []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			ms, err := e.FindAllParallel(ctx, input, opts)
			if err != nil || ms != nil {
				t.Fatalf("FindAllParallel = %v, %v; want no matches", ms, err)
			}
		})
	}
	run(large) // warm the pool
	a8, a64 := run(small), run(large)
	// Fixed per-call overhead (plan, result slice, worker bookkeeping) is
	// allowed; per-chunk allocations are not. Slack of 2 absorbs a stray
	// pool miss; one allocation per chunk would add 56.
	if a64 > a8+2 {
		t.Fatalf("FindAllParallel allocations grow with chunk count: 8 chunks → %.1f allocs, 64 chunks → %.1f", a8, a64)
	}
	t.Logf("FindAllParallel allocs/call: 8 chunks %.1f, 64 chunks %.1f", a8, a64)
}

func BenchmarkScanBatch(b *testing.B) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2,5}c", "b{3}"})
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = []byte(strings.Repeat("xabbbcx", 512)) // ~3.5 KiB each
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &BatchOptions{Workers: workers}
			b.ReportAllocs()
			b.SetBytes(int64(len(inputs)) * int64(len(inputs[0])))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ScanBatch(ctx, inputs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFindAllParallel(b *testing.B) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2,5}c", "b{3}"})
	input := []byte(strings.Repeat("xabbbcx", 64<<10/7)) // ~64 KiB
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			e.FindAll(input)
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := &ParallelOptions{Workers: workers, ChunkSize: 8 << 10}
			b.ReportAllocs()
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.FindAllParallel(ctx, input, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFindAllParallelNilAndEmpty pins edge-case parity with FindAll.
func TestFindAllParallelNilAndEmpty(t *testing.T) {
	ctx := context.Background()
	e := MustCompile([]string{"ab{2}c"})
	for _, input := range [][]byte{nil, {}, []byte("x")} {
		got, err := e.FindAllParallel(ctx, input, &ParallelOptions{ChunkSize: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := e.FindAll(input); !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q: par %v, seq %v", input, got, want)
		}
	}
	// Empty batch.
	results, err := e.ScanBatch(ctx, nil, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}

// TestCompileContextEngineParallelReady pins that engines built through
// CompileContext carry the same parallel-scan plumbing as Compile's (a
// regression guard for the pooled fields).
func TestCompileContextEngineParallelReady(t *testing.T) {
	ctx := context.Background()
	e, err := CompileContext(ctx, []string{"ab{2}c"})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("xabbcx", 40))
	got, err := e.FindAllParallel(ctx, input, &ParallelOptions{Workers: 2, ChunkSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if want := e.FindAll(input); !matchesEqual(got, want) {
		t.Fatalf("CompileContext engine diverged:\npar %v\nseq %v", got, want)
	}
	if _, err := e.ScanBatch(ctx, [][]byte{input}, nil); err != nil {
		t.Fatal(err)
	}
}
