package bvap

// Sharded parallel scanning. Two axes of parallelism over the same
// compiled Engine (which is immutable after Compile and safe to share):
//
//   - batch sharding: ScanBatch fans a set of independent inputs over a
//     bounded worker pool, each worker reusing a pooled Stream — the
//     software analogue of the many independent streams a CAMA/BVAP tile
//     array processes side by side;
//   - chunk parallelism: FindAllParallel splits one large input into
//     chunks scanned concurrently. Each chunk starts from the stream's
//     suffix-closed start configuration (unanchored initial states re-arm
//     on every symbol, so a fresh stream started anywhere sees every match
//     that begins at or after its start) and replays a bounded seam window
//     before its live region so its frontier at the chunk boundary equals
//     the sequential scanner's. The window is the compiled set's reach: an
//     upper bound on any match's length, derived from the same analysis as
//     AnalyzePattern (bounded-repetition upper bounds times the unfolded
//     body length). Patterns with unbounded reach (*, + or {n,}) force a
//     sequential fallback, recorded in telemetry.
//
// Differential tests (parascan_diff_test.go) and the FuzzParallelSeam
// target pin both paths byte-for-byte to the sequential FindAll oracle.

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"

	"bvap/internal/parascan"
	"bvap/internal/regex"
	"bvap/internal/swmatch"
	"bvap/internal/telemetry"
	"bvap/internal/tracing"
)

// DefaultChunkSize is the FindAllParallel chunk size when ParallelOptions
// leaves it zero: large enough that seam replay is noise for realistic
// reach bounds, small enough to shard a few hundred kilobytes usefully.
const DefaultChunkSize = 64 << 10

// BatchOptions configures Engine.ScanBatch. The zero value (or a nil
// pointer) scans with GOMAXPROCS workers, no budget and no telemetry.
type BatchOptions struct {
	// Workers bounds the worker pool; values < 1 select
	// runtime.GOMAXPROCS(0). Each worker owns one pooled Stream at a time,
	// so peak live streams equal the worker count.
	Workers int
	// Budget is the per-input symbol budget: every input starts with the
	// full MaxSymbols allowance (pooled streams are Reset between inputs,
	// which clears consumed symbols). An exhausted budget surfaces as that
	// input's BatchResult.Err (*BudgetError) without affecting the rest of
	// the batch.
	Budget Budget
	// Metrics, when non-nil, accrues the bvap_parascan_* counters and the
	// workers-busy gauge on this registry.
	Metrics *telemetry.Registry
	// Resilience, when non-nil, enables the shard-local
	// detect/retry/degrade ladder (see ShardResilience).
	Resilience *ShardResilience
}

// ShardResilience tunes ScanBatch's RunResilient-style recovery ladder,
// applied per shard: after scanning an input, its match set is verified
// against an independent software matcher per pattern; a mismatch triggers
// a shard-local re-scan on a fresh stream (other shards are unaffected),
// and a shard that exhausts its retries degrades to the reference
// matcher's output for the patterns the reference covers. Because the
// software engine is deterministic this ladder only fires when the
// execution substrate misbehaves; it exists so batch serving keeps the
// same detect/retry/degrade shape as Simulator.RunResilient.
type ShardResilience struct {
	// CrossCheck enables per-shard verification. Patterns whose unfolded
	// form exceeds the reference-size cap are skipped (as in
	// ResilienceConfig.CrossCheck).
	CrossCheck bool
	// MaxRetries bounds shard-local re-scans before degrading (default 2).
	MaxRetries int
}

// BatchResult is one input's outcome, delivered at the input's index.
type BatchResult struct {
	// Matches are the input's matches with End offsets relative to that
	// input, identical to what FindAll would return for it.
	Matches []Match
	// Err is the per-input error: a *BudgetError for an exhausted symbol
	// budget, a *PanicError for a shard whose scan body panicked (the
	// worker recovers, returns its pooled stream and keeps serving other
	// inputs), or the wrapped context error for inputs the batch never
	// started or abandoned mid-scan.
	Err error
	// Retries counts shard-local re-scans taken by the resilience ladder.
	Retries int
}

// shardCorruptHook, when non-nil, corrupts one scan attempt's match set
// before verification — the software stand-in for the hardware fault
// injector, letting tests exercise the shard-local detect/retry/degrade
// ladder deterministically. It runs inside the shard's panic guard, so a
// hook that panics exercises the recovery path too. Never set outside
// tests.
var shardCorruptHook func(input []byte, attempt int, ms []Match) []Match

// ScanBatch scans every input concurrently on a bounded worker pool and
// returns one BatchResult per input, in input order. Workers reuse pooled
// streams (steady-state scanning allocates nothing per input beyond match
// storage); per-input budgets and the ctx are threaded through each shard's
// ScanContext-equivalent scan. On cancellation the already-finished results
// stay valid, unfinished inputs carry the wrapped context error, and the
// batch-level error reports the cancellation.
func (e *Engine) ScanBatch(ctx context.Context, inputs [][]byte, opts *BatchOptions) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o BatchOptions
	if opts != nil {
		o = *opts
	}
	results := make([]BatchResult, len(inputs))
	if len(inputs) == 0 {
		return results, ctx.Err()
	}
	pm := parascan.NewMetrics(o.Metrics)
	done := make([]bool, len(inputs))
	err := parascan.ForEach(ctx, len(inputs), o.Workers, pm, func(ctx context.Context, i int) {
		results[i] = e.scanShard(ctx, inputs[i], &o, pm)
		pm.BatchInput()
		done[i] = true
	})
	if err != nil {
		for i := range results {
			if !done[i] {
				results[i].Err = fmt.Errorf("bvap: batch input %d not scanned: %w", i, err)
			}
		}
		return results, fmt.Errorf("bvap: batch scan canceled: %w", err)
	}
	return results, nil
}

// scanShard scans one batch input on a pooled stream, applying the
// resilience ladder when configured.
func (e *Engine) scanShard(ctx context.Context, input []byte, o *BatchOptions, pm *parascan.Metrics) BatchResult {
	crossCheck := false
	maxRetries := 0
	if o.Resilience != nil {
		crossCheck = o.Resilience.CrossCheck
		maxRetries = o.Resilience.MaxRetries
		if maxRetries == 0 {
			maxRetries = 2
		}
		if maxRetries < 0 {
			maxRetries = 0
		}
	}
	var res BatchResult
	for attempt := 0; ; attempt++ {
		ms, err := e.scanShardAttempt(ctx, input, o.Budget, attempt)
		res.Matches, res.Err, res.Retries = ms, err, attempt
		if err != nil || !crossCheck || e.verifyShard(input, ms) {
			return res
		}
		if attempt < maxRetries {
			pm.ShardRetry()
			continue
		}
		// Retries exhausted: degrade to the independent reference for the
		// patterns it covers (the clean path), keeping the engine's output
		// for patterns outside the reference's reach.
		pm.ShardFallback()
		res.Matches = e.referenceMatches(input, ms)
		return res
	}
}

// scanShardAttempt runs one scan attempt of one batch input on a pooled
// stream. It is panic-safe: the deferred recovery returns the pooled
// Stream (a reused stream is Reset before its next scan, so a mid-scan
// panic cannot leak state into a later input) and converts the panic into
// a typed *PanicError, so a pathological shard degrades one input's
// result instead of crashing the worker goroutine — and with it the
// process, since a panic on a bare worker goroutine is unrecoverable.
func (e *Engine) scanShardAttempt(ctx context.Context, input []byte, budget Budget, attempt int) (ms []Match, err error) {
	sctx, sp := tracing.StartSpan(ctx, "shard")
	sp.SetInt("attempt", attempt)
	sp.SetInt("bytes", len(input))
	s := e.pooledStream()
	defer func() {
		if v := recover(); v != nil {
			ms = nil
			err = &PanicError{Op: "batch shard", Value: v, Stack: debug.Stack()}
			sp.SetStr("panic", "recovered")
		}
		e.putStream(s)
		sp.SetInt("matches", len(ms))
		sp.End()
	}()
	s.SetBudget(budget)
	ms, err = s.scanContext(sctx, input, 0)
	if hook := shardCorruptHook; hook != nil {
		// The hook runs inside the guarded region so tests can exercise
		// the panic path exactly where a scan body would blow up.
		ms = hook(input, attempt, ms)
	}
	return ms, err
}

// verifyShard compares a shard's match set against the engine's
// independent reference matchers, pattern by pattern. Patterns without a
// reference (unsupported, oversized, or reference-unparseable) are skipped.
func (e *Engine) verifyShard(input []byte, ms []Match) bool {
	refs := e.refPool.Get()
	defer e.refPool.Put(refs)
	for p, ref := range refs {
		if ref == nil {
			continue
		}
		ends := ref.MatchEnds(input)
		j := 0
		for _, m := range ms {
			if m.Pattern != p {
				continue
			}
			if j >= len(ends) || ends[j] != m.End {
				return false
			}
			j++
		}
		if j != len(ends) {
			return false
		}
	}
	return true
}

// referenceMatches rebuilds a shard's match set from the reference
// matchers, keeping the engine's matches for patterns the reference does
// not cover, ordered like FindAll (End, then pattern index).
func (e *Engine) referenceMatches(input []byte, engineMS []Match) []Match {
	refs := e.refPool.Get()
	defer e.refPool.Put(refs)
	var out []Match
	for p, ref := range refs {
		if ref == nil {
			continue
		}
		for _, end := range ref.MatchEnds(input) {
			out = append(out, Match{Pattern: p, End: end})
		}
	}
	for _, m := range engineMS {
		if m.Pattern >= len(refs) || refs[m.Pattern] == nil {
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// ParallelOptions configures Engine.FindAllParallel. The zero value (or a
// nil pointer) selects GOMAXPROCS workers and DefaultChunkSize chunks.
type ParallelOptions struct {
	// Workers bounds the chunk-scanning worker pool; values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// ChunkSize is the live bytes per chunk; values < 1 select
	// DefaultChunkSize. Inputs no longer than one chunk are scanned
	// sequentially ("short_input" fallback), and a chunk size at or below
	// the seam window also falls back ("window_dominates": replay would
	// outweigh useful work).
	ChunkSize int
	// Metrics, when non-nil, accrues the bvap_parascan_* chunk, seam and
	// fallback counters on this registry.
	Metrics *telemetry.Registry
}

// FindAllParallel is FindAll over concurrent chunks: the input is split
// into ChunkSize shards, each scanned from the suffix-closed start
// configuration after replaying the seam window before its live region,
// and the per-chunk match lists are concatenated in chunk order — the
// result is byte-for-byte identical to FindAll. Pattern sets with
// unbounded reach (some supported pattern contains *, + or {n,}) cannot
// bound the seam window and fall back to the sequential scan; the decision
// is recorded on Metrics as bvap_parascan_fallback_total{reason=...}. On
// cancellation FindAllParallel returns nil matches and the wrapped context
// error.
func (e *Engine) FindAllParallel(ctx context.Context, input []byte, opts *ParallelOptions) ([]Match, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o ParallelOptions
	if opts != nil {
		o = *opts
	}
	if o.ChunkSize < 1 {
		o.ChunkSize = DefaultChunkSize
	}
	pm := parascan.NewMetrics(o.Metrics)

	tr := tracing.FromContext(ctx)
	window, bounded := e.SeamWindow()
	reason := ""
	switch {
	case !bounded:
		reason = "unbounded_reach"
	case len(input) <= o.ChunkSize:
		reason = "short_input"
	case window >= o.ChunkSize:
		reason = "window_dominates"
	}
	if reason != "" {
		pm.Fallback(reason)
		tr.SetStr("parallel_fallback", reason)
		return e.FindAllContext(ctx, input)
	}

	chunks := parascan.PlanChunks(len(input), o.ChunkSize, window)
	tr.SetInt("chunks", len(chunks))
	tr.SetInt("seam_window", window)
	shards := make([][]Match, len(chunks))
	panics := make([]error, len(chunks))
	err := parascan.ForEach(ctx, len(chunks), o.Workers, pm, func(ctx context.Context, i int) {
		panics[i] = e.scanChunk(ctx, input, chunks[i], shards, pm)
	})
	if err != nil {
		return nil, fmt.Errorf("bvap: parallel scan canceled: %w", err)
	}
	for _, perr := range panics {
		if perr != nil {
			return nil, fmt.Errorf("bvap: parallel scan failed: %w", perr)
		}
	}
	total := 0
	for _, ms := range shards {
		total += len(ms)
	}
	if total == 0 {
		return nil, nil // FindAll returns nil for a matchless input
	}
	out := make([]Match, 0, total)
	for _, ms := range shards {
		out = append(out, ms...)
	}
	return out, nil
}

// scanChunk scans one FindAllParallel chunk on a pooled stream, writing
// the chunk's live matches into its shards slot. Like scanShardAttempt it
// is panic-safe: the deferred recovery returns the pooled Stream and
// converts the panic into the returned *PanicError (nil on success), which
// FindAllParallel surfaces as the call's error.
func (e *Engine) scanChunk(ctx context.Context, input []byte, c parascan.Chunk, shards [][]Match, pm *parascan.Metrics) (perr error) {
	cctx, sp := tracing.StartSpan(ctx, "chunk")
	sp.SetInt("index", c.Index)
	sp.SetInt("replay_bytes", c.ReplayLen())
	s := e.getStream()
	defer func() {
		if v := recover(); v != nil {
			shards[c.Index] = nil
			perr = &PanicError{Op: "chunk scan", Value: v, Stack: debug.Stack()}
			sp.SetStr("panic", "recovered")
		}
		e.putStream(s)
		sp.SetInt("matches", len(shards[c.Index]))
		sp.End()
	}()
	s.Reset()
	s.SetBudget(Budget{}) // chunk scans are never budgeted
	ms, serr := s.scanContext(cctx, input[c.ReplayStart:c.End], c.ReplayStart)
	if hook := chunkPanicHook; hook != nil {
		hook(c)
	}
	if serr != nil {
		return nil // canceled mid-chunk; ForEach surfaces ctx.Err()
	}
	// Matches ending in the warm-up region belong to the previous chunk;
	// drop them in place.
	live := ms[:0]
	for _, m := range ms {
		if m.End >= c.Start {
			live = append(live, m)
		}
	}
	shards[c.Index] = live
	pm.ChunkScanned(c.ReplayLen())
	return nil
}

// chunkPanicHook, when non-nil, runs inside every chunk scan's guarded
// region — the test lever for the chunk panic-recovery path. Never set
// outside tests.
var chunkPanicHook func(c parascan.Chunk)

// SeamWindow returns the compiled set's seam replay window: an upper bound
// on the byte length of any match of any supported pattern, and whether
// such a bound exists. FindAllParallel replays this many bytes before each
// chunk; unsupported patterns never match and do not constrain the window.
// The result is computed once per engine and cached.
func (e *Engine) SeamWindow() (window int, bounded bool) {
	e.seamOnce.Do(func() {
		e.seamBounded = true
		for _, pr := range e.res.Report.PerRegex {
			if !pr.Supported {
				continue
			}
			ast, _, err := regex.ParseAnchored(pr.Pattern)
			if err != nil {
				e.seamBounded = false
				return
			}
			n, ok := regex.MaxMatchLen(ast)
			if !ok {
				e.seamBounded = false
				return
			}
			if n > e.seamBytes {
				e.seamBytes = n
			}
		}
	})
	if !e.seamBounded {
		return 0, false
	}
	return e.seamBytes, true
}

// PatternReach returns an upper bound on the byte length of any match of
// pattern and whether such a bound exists (false when the pattern contains
// *, + or {n,}). It is the per-pattern form of Engine.SeamWindow and uses
// the same analysis family as AnalyzePattern.
func PatternReach(pattern string) (reach int, bounded bool, err error) {
	ast, _, err := regex.ParseAnchored(pattern)
	if err != nil {
		return 0, false, err
	}
	n, ok := regex.MaxMatchLen(ast)
	return n, ok, nil
}

// crossCheckRefs builds one independent software matcher per compiled
// machine: nil entries stand for unsupported patterns, patterns whose
// unfolded form exceeds crossCheckMaxUnfolded, and patterns the reference
// parser rejects. The matchers are stateful — each caller owns the set it
// gets (ScanBatch pools them via Engine.refPool).
func (e *Engine) crossCheckRefs() []*swmatch.Matcher {
	per := e.res.Report.PerRegex
	refs := make([]*swmatch.Matcher, len(per))
	for i, pr := range per {
		if !pr.Supported || pr.UnfoldedSTEs > crossCheckMaxUnfolded {
			continue
		}
		m, err := swmatch.New(pr.Pattern)
		if err != nil {
			// The hardware compiler accepted the pattern; a reference
			// build failure means the reference doesn't cover this syntax
			// — skip rather than fail.
			continue
		}
		refs[i] = m
	}
	return refs
}
