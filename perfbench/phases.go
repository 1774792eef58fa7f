package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"bvap"
	"bvap/internal/compiler"
	"bvap/internal/nbva"
	"bvap/internal/regex"
	"bvap/internal/telemetry"
)

// minSetups is the fewest fresh set-ups setup_s is the median of.
const minSetups = 5

// setupShare is the set-up meter's share of the run relative to the other
// meters': setup_s is judged by its median between runs only, not by its
// spread, so the time goes to the throughput phases.
const setupShare = 0.25

// layerReps is how often the traced run repeats a layer probe.
const layerReps = 3

// setupMeter is phase 1: bvap.NewService (compile, validation probe,
// energy calibration) from scratch.
func (b *bench) setupMeter() *meter {
	return &meter{phase: "setup", minReps: minSetups, share: setupShare, unit: func(rep int64) error {
		id := b.tr.begin("serve.NewService", b.phase, rep)
		svc, err := bvap.NewService(b.w.patterns, nil)
		b.tr.end(id)
		if err != nil {
			return err
		}
		return svc.Close()
	}}
}

// setupLayers re-runs the compiler's phases from outside, on each pattern.
func (b *bench) setupLayers(setup *meter) error {
	opt := compiler.DefaultOptions()
	var compiles []float64
	for rep := int64(0); rep < layerReps; rep++ {
		id := b.tr.begin("compiler.Compile", b.phase, rep)
		t0 := time.Now()
		res, err := compiler.Compile(b.w.patterns, opt)
		compiles = append(compiles, time.Since(t0).Seconds())
		b.tr.end(id)
		if err != nil {
			return err
		}
		b.compiled = res
		for _, p := range b.w.patterns {
			var ast regex.Node
			var anchored bool
			b.tr.do("regex.parse", b.phase, rep, func() {
				ast, anchored, err = regex.ParseAnchored(p)
				if err == nil {
					regex.Analyze(ast)
				}
			})
			if err != nil {
				return err
			}
			b.tr.do("regex.rewrite", b.phase, rep, func() {
				ast = regex.Rewrite(compiler.LegalizeNesting(regex.Normalize(ast)),
					regex.Options{UnfoldThreshold: opt.UnfoldThreshold, BVSize: opt.BVSizeBits})
			})
			var m *nbva.NBVA
			b.tr.do("nbva.build", b.phase, rep, func() { m, err = nbva.Build(ast) })
			if err != nil {
				return err
			}
			m.Anchored = anchored
			b.tr.do("nbva.ah", b.phase, rep, func() { _, err = nbva.Transform(m) })
			if err != nil {
				return err
			}
		}
	}
	spans := b.tr.snapshot()
	perSet := func(name string) float64 {
		return float64(totalDur(spans, name)) / 1e6 / layerReps
	}
	compileMS := median(compiles) * 1e3
	parse, rewrite, build, ah := perSet("regex.parse"), perSet("regex.rewrite"), perSet("nbva.build"), perSet("nbva.ah")
	b.setLayer("regex.parse_ms", "ms", parse)
	b.setLayer("regex.rewrite_ms", "ms", rewrite)
	b.setLayer("nbva.build_ms", "ms", build)
	b.setLayer("nbva.ah_ms", "ms", ah)
	b.setLayer("compiler.compile_ms", "ms", compileMS)
	b.setLayer("compiler.other_ms", "ms", compileMS-parse-rewrite-build-ah)
	b.setLayer("serve.calibrate_ms", "ms", median(setup.reps)*1e3-compileMS)
	b.setLayer("compiler.stes", "count", float64(b.compiled.Report.TotalSTEs))
	b.setLayer("compiler.bv_stes", "count", float64(b.compiled.Report.TotalBVSTEs))
	b.setLayer("compiler.tiles", "count", float64(b.compiled.Report.Tiles))
	return nil
}

// phaseMemory is phase 2: live heap held by one Service, measured after
// collection with the benchmark's own inputs already live on both sides.
// The Service stays held for the later in-process phases.
func (b *bench) phaseMemory() error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	id := b.tr.begin("serve.NewService", b.phase, 0)
	svc, err := bvap.NewService(b.w.patterns, nil)
	b.tr.end(id)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.svc = svc
	b.setE2E("heap_mb", "MB", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/1e6)
	return nil
}

// checkScan compares one scan's output with the reference: in full on the
// warm-up pass, by count on the timed ones.
func (b *bench) checkScan(what string, i int, got, want []bvap.Match, full bool) error {
	if full {
		if err := sameMatches(got, want); err != nil {
			return b.wrong(fmt.Errorf("%s of input %d: %w", what, i, err))
		}
	} else if len(got) != len(want) {
		return b.wrong(fmt.Errorf("%s of input %d: %d matches, want %d", what, i, len(got), len(want)))
	}
	return nil
}

// unitLen is how much of the stream a timed unit of the sequential scan,
// in-process session and simulator phases covers: all n bytes, or the
// workload's unitBytes.
func (b *bench) unitLen(n int) int {
	if b.w.unitBytes > 0 {
		return min(n, b.w.unitBytes)
	}
	return n
}

// scanSet returns the sequential scan's inputs with their reference
// matches: the scan inputs, or the stream's first unitBytes.
func (b *bench) scanSet() ([][]byte, [][]bvap.Match) {
	if b.w.unitBytes == 0 {
		return b.w.inputs, b.ref.inputs
	}
	n := b.unitLen(len(b.w.stream))
	return [][]byte{b.w.stream[:n]}, [][]bvap.Match{b.ref.stream[:b.ref.streamBefore(n)]}
}

// scanMeter is phase 3: Engine.FindAll over every input of scanSet.
func (b *bench) scanMeter() *meter {
	eng := b.svc.Engine()
	inputs, want := b.scanSet()
	return &meter{phase: "scan", minReps: 2, unit: func(rep int64) error {
		for i, in := range inputs {
			id := b.tr.begin("bvap.FindAll", b.phase, rep)
			ms := eng.FindAll(in)
			b.tr.end(id)
			b.attempted.Add(1)
			if err := b.checkScan("FindAll", i, ms, want[i], rep == 0); err != nil {
				return err
			}
		}
		return nil
	}}
}

// probeBytes bounds the input of the traced run's per-layer scan probes.
const probeBytes = 64 << 10

// probeSet returns the scan inputs the per-layer probes run over: whole
// inputs up to probeBytes, or a prefix of the first one when it alone is
// longer, with their reference match count.
func (b *bench) probeSet() ([][]byte, int) {
	if len(b.w.inputs[0]) > probeBytes {
		ms := b.ref.inputs[0]
		return [][]byte{b.w.inputs[0][:probeBytes]}, sort.Search(len(ms), func(i int) bool { return ms[i].End >= probeBytes })
	}
	var out [][]byte
	n, matches := 0, 0
	for i, in := range b.w.inputs {
		if n+len(in) > probeBytes {
			break
		}
		out = append(out, in)
		n += len(in)
		matches += len(b.ref.inputs[i])
	}
	return out, matches
}

// scanLayers splits the scan into state stepping and report delivery, and
// prices stream creation and allocation.
func (b *bench) scanLayers() error {
	eng := b.svc.Engine()
	inputs, matches := b.probeSet()
	n := totalBytes(inputs)
	// Count walks the same state machine as FindAll but builds no match
	// slice. The two alternate so drift hits both alike.
	var counts, finds []float64
	for r := int64(0); r < layerReps; r++ {
		total := 0
		id := b.tr.begin("bvap.Count", b.phase, r)
		t0 := time.Now()
		for _, in := range inputs {
			total += eng.Count(in)
		}
		counts = append(counts, time.Since(t0).Seconds())
		b.tr.end(id)
		if total != matches {
			return b.wrong(fmt.Errorf("Count: %d matches, want %d", total, matches))
		}
		id = b.tr.begin("bvap.FindAll", b.phase, r)
		t0 = time.Now()
		for _, in := range inputs {
			eng.FindAll(in)
		}
		finds = append(finds, time.Since(t0).Seconds())
		b.tr.end(id)
	}
	countSec := median(counts)
	b.setLayer("bvap.stream_ns_per_byte", "ns/B", countSec*1e9/float64(n))
	// The difference of two noisy timings: the fastest of each is the
	// steadier estimate of their work.
	report := 0.0
	if matches > 0 {
		report = (minOf(finds) - minOf(counts)) * 1e9 / float64(matches)
	}
	b.setLayer("bvap.report_ns_per_match", "ns", report)
	b.setLayer("bvap.matches_per_kb", "1/KB", float64(matches)/(float64(n)/1024))

	var newStream []float64
	for r := 0; r < 50; r++ {
		id := b.tr.begin("bvap.NewStream", b.phase, int64(r))
		t0 := time.Now()
		eng.NewStream()
		newStream = append(newStream, time.Since(t0).Seconds())
		b.tr.end(id)
	}
	b.setLayer("bvap.newstream_us", "us", median(newStream)*1e6)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, in := range inputs {
		eng.FindAll(in)
	}
	runtime.ReadMemStats(&m1)
	b.setLayer("bvap.allocs_per_kb", "allocs/KB", float64(m1.Mallocs-m0.Mallocs)/(float64(n)/1024))
	b.setLayer("bvap.alloc_bytes_per_byte", "B/B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	return b.probeRunners()
}

// probeRunners times each pattern's nbva.AHRunner (the unit Stream.Step
// loops over) across a slice of the stream, then counts its active states
// and bit-vector operations per byte in a second, untimed pass.
func (b *bench) probeRunners() error {
	slice := b.w.stream[:min(len(b.w.stream), max(b.w.simBytes/4, 1))]
	var stepNS int64
	active, ops := 0, 0
	for i, m := range b.compiled.Machines {
		if m == nil {
			continue
		}
		r := nbva.NewAHRunner(m)
		id := b.tr.begin("nbva.AHRunner", b.phase, int64(i))
		t0 := time.Now()
		for _, c := range slice {
			r.Step(c)
		}
		stepNS += time.Since(t0).Nanoseconds()
		b.tr.end(id)
		r = nbva.NewAHRunner(m)
		for _, c := range slice {
			r.Step(c)
			active += r.ActiveStates()
			ops += r.ReadOps() + r.SwapOps()
		}
	}
	n := float64(len(slice))
	b.setLayer("nbva.step_ns_per_byte", "ns/B", float64(stepNS)/n)
	b.setLayer("nbva.active_states_per_byte", "states/B", float64(active)/n)
	b.setLayer("nbva.bv_ops_per_byte", "ops/B", float64(ops)/n)
	return nil
}

// parallelMeter is phase 4: Engine.FindAllParallel with nproc workers.
func (b *bench) parallelMeter() *meter {
	eng := b.svc.Engine()
	opts := &bvap.ParallelOptions{Workers: b.nproc}
	return &meter{phase: "parallel", minReps: 2, unit: func(rep int64) error {
		for i, in := range b.w.inputs {
			id := b.tr.begin("bvap.FindAllParallel", b.phase, rep)
			ms, err := eng.FindAllParallel(context.Background(), in, opts)
			b.tr.end(id)
			b.attempted.Add(1)
			if err != nil {
				return err
			}
			if err := b.checkScan("FindAllParallel", i, ms, b.ref.inputs[i], rep == 0); err != nil {
				return err
			}
		}
		return nil
	}}
}

// parallelLayers reads the parascan counters of one more pass, on a
// registry of the benchmark's own.
func (b *bench) parallelLayers(scan, parallel *meter) error {
	eng := b.svc.Engine()
	reg := telemetry.NewRegistry()
	counted := &bvap.ParallelOptions{Workers: b.nproc, Metrics: reg}
	for i, in := range b.w.inputs {
		id := b.tr.begin("bvap.FindAllParallel", b.phase, 0)
		ms, err := eng.FindAllParallel(context.Background(), in, counted)
		b.tr.end(id)
		if err != nil {
			return err
		}
		if err := b.checkScan("FindAllParallel", i, ms, b.ref.inputs[i], false); err != nil {
			return err
		}
	}
	sum := func(name string) float64 {
		v := 0.0
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				v += s.Value
			}
		}
		return v
	}
	b.setLayer("parascan.chunks", "count", sum("bvap_parascan_chunks_scanned_total"))
	b.setLayer("parascan.seam_replay_ratio", "ratio", sum("bvap_parascan_seam_replay_bytes_total")/float64(totalBytes(b.w.inputs)))
	b.setLayer("parascan.fallbacks", "count", sum("bvap_parascan_fallback_total"))
	scanned, _ := b.scanSet()
	b.setLayer("parascan.speedup", "x", median(scan.reps)/float64(totalBytes(scanned))/
		(median(parallel.reps)/float64(totalBytes(b.w.inputs))))
	return nil
}

// streamMeter is phase 5: Service.NewSession plus Feed in the workload's
// chunk size, checkpointing at its interval, over the stream's first
// unitLen bytes. In the traced run every other repetition runs with its
// per-call spans off, under one span of its own, which prices the tracing
// itself.
func (b *bench) streamMeter() *meter {
	s := b.w.stream[:b.unitLen(len(b.w.stream))]
	want := b.ref.stream[:b.ref.streamBefore(len(s))]
	return &meter{phase: "stream", minReps: 2, unit: func(rep int64) error {
		tr := b.tr
		id := 0
		if rep%2 == 0 {
			tr = nil
			id = b.tr.begin("untraced.rep", b.phase, rep)
		}
		defer b.tr.end(id)
		b.attempted.Add(1)
		// Sized in advance, so the collector's work is the session's, not
		// this slice's growth.
		got := make([]bvap.Match, 0, len(want))
		ss, err := b.svc.NewSession(&bvap.SessionConfig{
			CheckpointInterval: b.w.interval,
			OnMatch:            func(m bvap.Match) { got = append(got, m) },
		})
		if err != nil {
			return err
		}
		ctx := context.Background()
		for off := 0; off < len(s); off += b.w.chunk {
			id := tr.begin("serve.Feed", b.phase, rep)
			err := ss.Feed(ctx, s[off:min(off+b.w.chunk, len(s))])
			tr.end(id)
			if err != nil {
				return err
			}
		}
		ss.Close()
		if rep == 0 {
			if err := sameMatches(got, want); err != nil {
				return b.wrong(fmt.Errorf("session: %w", err))
			}
		} else if len(got) != len(want) {
			return b.wrong(fmt.Errorf("session: %d matches, want %d", len(got), len(want)))
		}
		return nil
	}}
}

// streamLayers prices tracing (traced against untraced repetitions),
// one Feed call, and the serve path around the engine.
func (b *bench) streamLayers(stream *meter) error {
	var traced, untraced []float64
	for i, d := range stream.reps {
		// reps[i] is repetition i+1; even repetitions ran untraced.
		if (i+1)%2 == 0 {
			untraced = append(untraced, d)
		} else {
			traced = append(traced, d)
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		b.setLayer("trace.overhead_pct", "%", (median(traced)-median(untraced))/median(untraced)*100)
	}
	b.setLayer("serve.feed_us", "us", median(durations(b.tr.snapshot(), "serve.Feed"))*1e6)
	return b.probeServe()
}

// probeServe prices the serve path around the engine: Service.Scan against
// Engine.FindAll on the same bodies, and one session checkpoint with its
// wire encoding.
func (b *bench) probeServe() error {
	eng := b.svc.Engine()
	ctx := context.Background()
	var overhead []float64
	for i, body := range b.w.bodies {
		// Scan, FindAll, FindAll, Scan: drift within the four calls
		// cancels out of the difference.
		var scan, find float64
		for k := 0; k < 4; k++ {
			name := "bvap.FindAll"
			if k == 0 || k == 3 {
				name = "serve.Scan"
			}
			var ms []bvap.Match
			var err error
			id := b.tr.begin(name, b.phase, int64(i))
			t0 := time.Now()
			if name == "serve.Scan" {
				ms, err = b.svc.Scan(ctx, body)
				scan += time.Since(t0).Seconds()
			} else {
				ms = eng.FindAll(body)
				find += time.Since(t0).Seconds()
			}
			b.tr.end(id)
			if err != nil {
				return err
			}
			if err := sameMatches(ms, b.bodyRef[i]); err != nil {
				return b.wrong(fmt.Errorf("%s of body %d: %w", name, i, err))
			}
		}
		overhead = append(overhead, (scan-find)/2)
	}
	b.setLayer("serve.scan_overhead_us", "us", median(overhead)*1e6)

	ss, err := b.svc.NewSession(&bvap.SessionConfig{CheckpointInterval: b.w.interval})
	if err != nil {
		return err
	}
	defer ss.Close()
	var cks, sizes []float64
	s := b.w.stream
	for i, off := 0, 0; i < 30 && off < len(s); i, off = i+1, off+b.w.chunk {
		if err := ss.Feed(ctx, s[off:min(off+b.w.chunk, len(s))]); err != nil {
			return err
		}
		id := b.tr.begin("serve.Checkpoint", b.phase, int64(i))
		t0 := time.Now()
		wire, err := ss.Checkpoint().MarshalBinary()
		cks = append(cks, time.Since(t0).Seconds())
		b.tr.end(id)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(wire)))
	}
	b.setLayer("serve.checkpoint_us", "us", median(cks)*1e6)
	b.setLayer("serve.checkpoint_bytes", "B", median(sizes))
	return nil
}

// simMeter is phase 6: Engine.NewSimulator(ArchBVAP) plus Run and Result.
// The untimed warm-up simulates the stream's first simBytes, which give the
// simulated energy and throughput; the timed repetitions simulate its first
// unitLen of those bytes, and every one must repeat the first exactly.
// sim_msym_s is host time.
func (b *bench) simMeter() *meter {
	eng := b.svc.Engine()
	full := b.w.stream[:min(b.w.simBytes, len(b.w.stream))]
	timed := full[:b.unitLen(len(full))]
	var first *bvap.Result
	simulate := func(rep int64, slice []byte) (*bvap.Result, error) {
		tr := b.tr
		if len(slice) != len(timed) {
			tr = nil // only the timed slice's spans price the simulator
		}
		id := tr.begin("hwsim.NewSimulator", b.phase, rep)
		sim, err := eng.NewSimulator(bvap.ArchBVAP)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		b.attempted.Add(1)
		tr.do("hwsim.Run", b.phase, rep, func() { sim.Run(slice) })
		var res bvap.Result
		tr.do("hwsim.Result", b.phase, rep, func() { res = sim.Result() })
		if want := b.ref.streamBefore(len(slice)); res.Matches != uint64(want) || res.Symbols != uint64(len(slice)) {
			return nil, b.wrong(fmt.Errorf("simulator: %d matches over %d symbols, want %d over %d",
				res.Matches, res.Symbols, want, len(slice)))
		}
		if rep == 0 && len(slice) == len(full) {
			b.simResult, b.simStats = &res, *sim.Stats()
		}
		return &res, nil
	}
	return &meter{phase: "sim", minReps: 2, unit: func(rep int64) error {
		if rep == 0 && len(timed) != len(full) {
			if _, err := simulate(rep, full); err != nil {
				return err
			}
		}
		res, err := simulate(rep, timed)
		if err != nil {
			return err
		}
		if first == nil {
			first = res
		} else if *res != *first {
			return b.wrong(fmt.Errorf("simulator is not deterministic: %+v after %+v", *res, *first))
		}
		return nil
	}}
}

// simLayers reports the simulated cycle and energy breakdown and the host
// cost of simulating.
func (b *bench) simLayers() {
	spans := b.tr.snapshot()
	st := b.simStats
	syms := float64(st.Symbols)
	timed := float64(b.unitLen(int(st.Symbols)))
	b.setLayer("hwsim.host_ns_per_sym", "ns/sym", median(durations(spans, "hwsim.Run"))*1e9/timed)
	b.setLayer("hwsim.new_sim_ms", "ms", median(durations(spans, "hwsim.NewSimulator"))*1e3)
	b.setLayer("hwsim.cycles_per_sym", "cycles/sym", float64(st.Cycles)/syms)
	b.setLayer("hwsim.stall_cycles_per_ksym", "cycles/ksym", float64(st.StallCycles)/syms*1000)
	b.setLayer("hwsim.input_stall_cycles", "cycles", float64(st.InputStallCycles))
	b.setLayer("hwsim.output_stall_cycles", "cycles", float64(st.OutputStallCycles))
	for _, e := range []struct {
		stage string
		pj    float64
	}{
		{"match", st.MatchEnergyPJ}, {"transition", st.TransitionEnergyPJ}, {"bvm", st.BVMEnergyPJ},
		{"wire", st.WireEnergyPJ}, {"io", st.IOEnergyPJ}, {"leakage", st.LeakageEnergyPJ},
	} {
		b.setLayer("hwsim.energy_pj_per_byte."+e.stage, "pJ/B", e.pj/syms)
	}
}
