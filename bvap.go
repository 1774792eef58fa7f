// Package bvap is a software implementation and cycle-accurate hardware
// model of BVAP, the Bit Vector Automata Processor for regular expressions
// with bounded repetitions (Wen, Kong, Le Glaunec, Mamouras, Yang —
// ASPLOS 2024).
//
// The package offers three layers:
//
//   - a regex engine (Compile / Engine) that executes patterns with
//     streaming partial-match semantics using Action-Homogeneous
//     Nondeterministic Bit Vector Automata, the paper's theoretical model:
//     bounded repetitions like a{1000} cost a handful of states instead of
//     thousands;
//   - a compiler to the BVAP hardware configuration format (WriteConfig),
//     including the §7 rewriting pipeline, Table 3 instruction selection and
//     tile mapping;
//   - a cycle-accurate simulator (NewSimulator, NewBaselineSimulator) that
//     replays workloads on the modeled BVAP hardware and on the baseline
//     automata processors CAMA, CA, eAP and CNT, reporting energy, area,
//     throughput and the paper's derived metrics.
package bvap

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"

	"bvap/internal/compiler"
	"bvap/internal/nbva"
	"bvap/internal/parascan"
	"bvap/internal/regex"
	"bvap/internal/swmatch"
	"bvap/internal/telemetry"
)

// Option configures compilation.
type Option func(*compiler.Options)

// WithBVSize sets the virtual bit-vector size K (a power of two in [8, 64]).
// Larger values compress large repetitions better; smaller values cut the
// word-serial processing latency (§8's design space exploration).
func WithBVSize(bits int) Option {
	return func(o *compiler.Options) { o.BVSizeBits = bits }
}

// WithUnfoldThreshold sets the largest repetition bound that is unfolded
// into plain states instead of counted (unfold_th; Table 5 reports best
// values between 4 and 12).
func WithUnfoldThreshold(th int) Option {
	return func(o *compiler.Options) { o.UnfoldThreshold = th }
}

// WithTracer attaches a structured-trace emitter to compilation: the
// compiler emits one wall-time span per pipeline phase (parse → rewrite →
// Glushkov → AH → instruction selection → tile mapping) and one instant
// event per pattern recording the rewrite decision it took.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(o *compiler.Options) { o.Tracer = tr }
}

// WithMetrics attaches a metrics registry to compilation: phase wall-time
// counters, per-pattern rewrite-decision counters, Table 3 read-kind hits,
// and resource totals accrue on reg.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(o *compiler.Options) { o.Metrics = reg }
}

// Match reports that pattern Pattern (index into the compiled set) matched
// some substring of the input ending at byte offset End.
type Match struct {
	Pattern int
	End     int
}

// PatternReport summarizes how one pattern compiled.
type PatternReport struct {
	Pattern string
	// Supported is false when the pattern cannot be mapped onto BVAP
	// hardware; Reason explains why. Unsupported patterns never match.
	Supported bool
	Reason    string
	// Kind classifies the failure ("syntax", "capacity", "budget"); see
	// Engine.PatternErrors for the typed-error view.
	Kind string
	// STEs and BVSTEs are the hardware resources the pattern occupies.
	STEs   int
	BVSTEs int
	// UnfoldedSTEs is the state count a conventional (unfolding)
	// automata processor would need — the paper's headline saving.
	UnfoldedSTEs int
}

// Report summarizes a compilation.
type Report struct {
	Patterns    []PatternReport
	TotalSTEs   int
	TotalBVSTEs int
	Tiles       int
	Unsupported int
}

// Engine is a compiled set of patterns.
//
// Concurrency contract: an Engine is immutable after Compile returns and is
// safe for unrestricted concurrent use — any number of goroutines may call
// FindAll, Count, ScanBatch, FindAllParallel, NewStream, Report and the
// simulator constructors on one shared Engine (the race/stress tests in
// parallel_test.go hammer exactly this). The only mutable objects are the
// values an Engine hands out: a Stream (and a Simulator) is owned by one
// goroutine at a time and is not safe for concurrent use.
type Engine struct {
	res      *compiler.Result
	patterns []string
	// core is the merged scan table every Stream runs (see nbva.Merged).
	core *nbva.Merged

	// spool pools Streams for the one-shot, batch and chunk scanners so
	// steady-state scanning allocates nothing per input; refPool pools independent
	// reference-matcher sets for the shard cross-check ladder (swmatch
	// matchers are stateful, so each concurrent verification owns a set).
	spool   *parascan.Pool[*Stream]
	refPool *parascan.Pool[[]*swmatch.Matcher]

	// seamOnce caches the SeamWindow reach analysis (safe under the
	// immutability contract: sync.Once is the one blessed lazy field).
	seamOnce    sync.Once
	seamBytes   int
	seamBounded bool

	// streamsOut counts pooled streams currently checked out (atomic
	// accounting, not engine state): the goroutine-hygiene tests assert
	// it returns to zero after every batch — including batches whose
	// shards panicked — proving the panic-recovery path returns its
	// pooled Stream.
	streamsOut atomic.Int64

	// energyRatePJPerSym is the calibrated per-symbol energy of this
	// configuration on the BVAP model, in pJ: set once by the service's
	// pre-publish calibration (before the engine is visible to scans) and 0
	// when never calibrated. It powers the serving path's live per-scan
	// energy estimate — the software engine burns no modeled energy itself.
	energyRatePJPerSym float64

	// fingerprint identifies the compiled behavior (see Fingerprint).
	fingerprint uint64
}

// Fingerprint is a stable 64-bit identity of the engine's compiled
// behavior: FNV-64a over the compile parameters that shape the machines
// (BV size, unfold threshold) plus each pattern's text and supported flag.
// Two engines with equal fingerprints execute identical automata, so a
// wire session checkpoint (SessionCheckpoint.MarshalBinary) taken against
// one resumes correctly against the other — even across processes or
// reloads that recompiled the same pattern set.
func (e *Engine) Fingerprint() uint64 { return e.fingerprint }

// computeFingerprint derives the engine fingerprint at construction time.
func computeFingerprint(res *compiler.Result, patterns []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeInt(res.Config.Params.BVSizeBits)
	writeInt(res.Config.Params.UnfoldThreshold)
	writeInt(len(patterns))
	for i, p := range patterns {
		writeInt(len(p))
		h.Write([]byte(p))
		supported := byte(0)
		if i < len(res.Report.PerRegex) && res.Report.PerRegex[i].Supported {
			supported = 1
		}
		h.Write([]byte{supported})
	}
	return h.Sum64()
}

// getStream and putStream wrap the stream pool with checkout accounting;
// every pool access in the batch/chunk scanners goes through them so the
// panic-safety defers provably return what they took.
func (e *Engine) getStream() *Stream {
	e.streamsOut.Add(1)
	return e.spool.Get()
}

// pooledStream checks out a stream ready for a fresh input: start of
// stream and no budget. Pair it with a deferred putStream.
func (e *Engine) pooledStream() *Stream {
	s := e.getStream()
	s.Reset()
	s.budget = Budget{}
	return s
}

func (e *Engine) putStream(s *Stream) {
	e.spool.Put(s)
	e.streamsOut.Add(-1)
}

// StreamsOut returns the number of pooled streams currently checked out by
// in-flight FindAll / Count / FindAllContext calls and ScanBatch /
// FindAllParallel shards. It is zero whenever no
// scan is in flight — even after shards that panicked — and exists for
// leak detection in tests and the service soak harness.
func (e *Engine) StreamsOut() int64 { return e.streamsOut.Load() }

// ScanEnergyEstimatePJ estimates the modeled energy of scanning inputBytes
// on this configuration, in pJ, from the service's simulator calibration
// (rate × length). ok is false when the engine was never calibrated —
// engines outside a Service, or services with calibration disabled. The
// figure is an estimate, not the exact per-run partition a Simulator with
// a tracing.EnergySink produces.
func (e *Engine) ScanEnergyEstimatePJ(inputBytes int) (float64, bool) {
	if e.energyRatePJPerSym <= 0 {
		return 0, false
	}
	return e.energyRatePJPerSym * float64(inputBytes), true
}

// newEngine wraps a compilation result with the engine's concurrency
// plumbing. Pool constructors run lazily, on first use.
func newEngine(res *compiler.Result, patterns []string) *Engine {
	e := &Engine{res: res, patterns: append([]string(nil), patterns...), core: nbva.NewMerged(res.Machines)}
	e.fingerprint = computeFingerprint(res, e.patterns)
	e.spool = parascan.NewPool(e.NewStream)
	e.refPool = parascan.NewPool(e.crossCheckRefs)
	return e
}

// Compile compiles patterns into an Engine using the §7 pipeline. Patterns
// use PCRE-subset syntax (see internal/regex): literals, escapes, classes,
// alternation, grouping, the (?i) case-folding modifier, a leading ^ start
// anchor, * + ? and the bounded repetitions {n}, {m,n}, {n,}. Individual
// patterns that fail to compile are reported in Report and skipped rather
// than failing the whole set, matching how rule sets are deployed in
// practice.
func Compile(patterns []string, opts ...Option) (*Engine, error) {
	copt := compiler.DefaultOptions()
	for _, o := range opts {
		o(&copt)
	}
	res, err := compiler.Compile(patterns, copt)
	if err != nil {
		return nil, err
	}
	return newEngine(res, patterns), nil
}

// MustCompile is Compile for known-good inputs; it panics on error.
func MustCompile(patterns []string, opts ...Option) *Engine {
	e, err := Compile(patterns, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Patterns returns the source patterns.
func (e *Engine) Patterns() []string { return e.patterns }

// Report returns the compilation summary.
func (e *Engine) Report() Report {
	r := Report{
		TotalSTEs:   e.res.Report.TotalSTEs,
		TotalBVSTEs: e.res.Report.TotalBVSTEs,
		Tiles:       e.res.Report.Tiles,
		Unsupported: e.res.Report.Unsupported,
	}
	for _, pr := range e.res.Report.PerRegex {
		r.Patterns = append(r.Patterns, PatternReport{
			Pattern:      pr.Pattern,
			Supported:    pr.Supported,
			Reason:       pr.Reason,
			Kind:         pr.Kind,
			STEs:         pr.STEs,
			BVSTEs:       pr.BVSTEs,
			UnfoldedSTEs: pr.UnfoldedSTEs,
		})
	}
	return r
}

// WriteConfig writes the JSON hardware configuration (the compiler's §7
// output) to w.
func (e *Engine) WriteConfig(w io.Writer) error { return e.res.Config.Write(w) }

// FindAll scans input and returns every match of every pattern, ordered by
// end position (and by pattern index within a position).
func (e *Engine) FindAll(input []byte) []Match {
	s := e.pooledStream()
	defer e.putStream(s)
	var out []Match
	for i, b := range input {
		for _, p := range s.Step(b) {
			out = append(out, Match{Pattern: p, End: i})
		}
	}
	return out
}

// Count returns the total number of matches in input across all patterns.
func (e *Engine) Count(input []byte) int {
	s := e.pooledStream()
	defer e.putStream(s)
	n := 0
	for _, b := range input {
		n += len(s.Step(b))
	}
	return n
}

// Engine-metric names exposed by Stream.Instrument.
const (
	MetricEngineSymbols      = "bvap_engine_symbols_total"
	MetricEngineMatches      = "bvap_engine_matches_total"
	MetricEngineActiveStates = "bvap_engine_active_states"
)

// streamInstr is the optional per-stream instrumentation; Stream.Step pays
// a single nil check when it is absent.
type streamInstr struct {
	symbols *telemetry.Counter
	matches *telemetry.Counter
	active  *telemetry.Gauge
}

// Stream matches incrementally over a byte stream. Streams are not safe for
// concurrent use.
type Stream struct {
	engine *Engine
	core   *nbva.MergedRunner
	inst   *streamInstr

	// budget / symbolsRun implement the run-time symbol budget of
	// ScanContext (see SetBudget in context.go).
	budget     Budget
	symbolsRun int64
}

// NewStream creates an independent matching stream.
func (e *Engine) NewStream() *Stream {
	return &Stream{engine: e, core: e.core.NewRunner()}
}

// Instrument attaches a metrics registry to this stream: a symbol counter,
// a match counter, and an active-NFA-state occupancy gauge updated after
// every Step. Pass nil to detach. The uninstrumented Step path costs a
// single nil check and allocates nothing.
func (s *Stream) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		s.inst = nil
		return
	}
	s.inst = &streamInstr{
		symbols: reg.Counter(MetricEngineSymbols, "input symbols processed by the engine"),
		matches: reg.Counter(MetricEngineMatches, "pattern matches reported by the engine"),
		active:  reg.Gauge(MetricEngineActiveStates, "active NFA states after the last engine step"),
	}
}

// Step consumes one byte and returns the indices of the patterns for which
// a match ends at it. The returned slice is reused across calls.
func (s *Stream) Step(b byte) []int {
	hits := s.core.Step(b)
	if s.inst != nil {
		s.inst.symbols.Inc()
		if len(hits) > 0 {
			s.inst.matches.Add(uint64(len(hits)))
		}
		s.inst.active.Set(float64(s.core.ActiveStates()))
	}
	return hits
}

// Reset returns the stream to its start-of-input state: the matching
// configuration returns to start-of-stream AND the ScanContext symbol
// consumption is cleared, so a reused (pooled) stream begins every input
// with its full budget. The budget limit itself is configuration, not
// state, and survives Reset; between ScanContext calls without a Reset,
// consumption stays cumulative (see SetBudget).
func (s *Stream) Reset() {
	s.core.Reset()
	s.symbolsRun = 0
}

// ParsePattern validates a single pattern, returning a descriptive error
// for invalid syntax.
func ParsePattern(pattern string) error {
	_, err := regex.Parse(pattern)
	return err
}

// AnalyzePattern returns structural statistics of a pattern: whether it
// uses bounded repetition, its largest bound, and the unfolded NFA size a
// conventional automata processor would need.
func AnalyzePattern(pattern string) (hasCounting bool, maxBound, unfoldedStates int, err error) {
	ast, err := regex.Parse(pattern)
	if err != nil {
		return false, 0, 0, err
	}
	st := regex.Analyze(ast)
	return st.HasCounting(), st.MaxUpperBound, st.UnfoldedLiterals, nil
}

// MappingStats describes how the compiled machines pack into hardware
// tiles; whole tiles are provisioned, so low utilization is paid silicon.
type MappingStats struct {
	Tiles          int
	STEUtilization float64
	BVUtilization  float64
	WastedBVMFrac  float64
	MaxSTEs        int
	MaxBVs         int
}

// MappingStats returns tile-utilization statistics for the compiled set.
func (e *Engine) MappingStats() MappingStats {
	s := compiler.ComputeMappingStats(e.res.Config)
	return MappingStats{
		Tiles:          s.Tiles,
		STEUtilization: s.STEUtilization,
		BVUtilization:  s.BVUtilization,
		WastedBVMFrac:  s.WastedBVMFrac,
		MaxSTEs:        s.MaxSTEs,
		MaxBVs:         s.MaxBVs,
	}
}
