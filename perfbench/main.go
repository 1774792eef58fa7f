// Command perfbench is the repository's end-to-end benchmark: for one
// workload it sets up the bvap service, verifies every output against
// independent oracles, then measures compile, scan, parallel scan,
// streaming, simulation and fleet serving, and prints one JSON line of
// metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"bvap"
	"bvap/internal/compiler"
	"bvap/internal/hwsim"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	pins     string
	// writePins records the oracle's counts for this workload and seed
	// in pins, instead of running the benchmark.
	writePins bool
	spans     string
	// tiny shrinks the inputs (smoke test only).
	tiny bool
	log  io.Writer
}

// bench is one run's state.
type bench struct {
	w       *workload
	seed    int64
	seconds float64
	tr      *tracer // nil in the untraced run
	nproc   int
	log     io.Writer
	ref     *reference
	// svc is the Service held from the memory phase on.
	svc *bvap.Service
	// bodyRef are the expected matches of the fleet's one-shot bodies.
	bodyRef [][]bvap.Match
	// phase is the id of the current phase span.
	phase int
	// compiled is the traced run's compiler output.
	compiled *compiler.Result
	// simResult and simStats are the first simulation's outcome, which
	// every later one must repeat exactly.
	simResult *bvap.Result
	simStats  hwsim.Stats
	// gc is the collector's work per phase.
	gc map[string]gcWork

	e2e, layer map[string]metric
	// attempted counts the in-process operations; a failing one stops the
	// run, so only fleet operations are ever counted as failed.
	attempted atomic.Int64
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layer[name] = metric{v, unit} }

// phaseNames are the phases in run order.
var phaseNames = []string{"setup", "memory", "scan", "parallel", "stream", "sim", "fleet"}

// run executes one benchmark run. A non-nil error with a result means the
// outputs were checked and found wrong.
func run(o options) (*result, error) {
	w, err := buildWorkload(o.workload, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	b := &bench{
		w: w, seed: o.seed, seconds: o.seconds, nproc: runtime.NumCPU(), log: o.log,
		e2e: map[string]metric{}, layer: map[string]metric{}, gc: map[string]gcWork{},
	}
	if o.trace {
		b.tr = newTracer()
	}
	res, err := b.execute(o)
	var wrong *wrongOutput
	if errors.As(err, &wrong) {
		return &result{Correct: false, Attempted: max(b.attempted.Load(), 1), Metrics: map[string]metric{}}, err
	}
	return res, err
}

// execute is one run after its workload is built: oracles, pins, phases.
func (b *bench) execute(o options) (*result, error) {
	t0 := time.Now()
	ref, err := buildReference(b.w, b.nproc)
	if err != nil {
		return nil, b.wrong(fmt.Errorf("oracle: %w", err))
	}
	b.ref = ref
	fmt.Fprintf(b.log, "%s: %s oracle %.2fs: %d scan matches, %d stream matches\n",
		b.w.name, b.w.oracle, time.Since(t0).Seconds(), ref.scanMatches(), len(ref.stream))
	if o.writePins {
		return nil, writePin(o.pins, b.w, o.seed, ref)
	}
	pf, err := loadPins(o.pins)
	if err != nil {
		return nil, fmt.Errorf("pins: %w", err)
	}
	pinned, err := checkPin(pf, b.w, o.seed, ref)
	if err != nil {
		return nil, b.wrong(fmt.Errorf("pinned counts for %s seed %d: %w", b.w.name, o.seed, err))
	}
	if !pinned {
		fmt.Fprintf(b.log, "%s: no pinned counts for seed %d; checking against the oracle only\n", b.w.name, o.seed)
	}

	if err := b.inPhase("memory", b.phaseMemory); err != nil {
		return nil, err
	}
	defer b.svc.Close()
	var f *fleet
	err = b.inPhase("fleet", func() error {
		id := b.tr.begin("fleet.start", b.phase, 0)
		defer b.tr.end(id)
		if f, err = startFleet(b.w, b.nproc); err != nil {
			return err
		}
		b.fleetBodyRefs()
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		f.close()
		fmt.Fprintf(b.log, "%s: fleet operations %s\n", b.w.name, f.ops.String())
	}()

	setup, scan, parallel, stream, sim := b.setupMeter(), b.scanMeter(), b.parallelMeter(), b.streamMeter(), b.simMeter()
	closed, scans, feeds, load := b.fleetMeters(f)
	t0 = time.Now()
	if err := b.measure([]*meter{setup, scan, parallel, stream, sim, closed, scans, feeds}); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "%s: measured %.2fs: %d set-ups, %d/%d/%d/%d scan/parallel/stream/sim repetitions, %d closed-loop repetitions, %d+%d open-loop segments\n",
		b.w.name, time.Since(t0).Seconds(), len(setup.reps), len(scan.reps), len(parallel.reps), len(stream.reps), len(sim.reps),
		len(closed.reps), len(load.scanSegs), len(load.feedSegs))
	fmt.Fprintf(b.log, "%s: repetition spread (q3 - q1) / median: setup %.3f, scan %.3f, parallel %.3f, stream %.3f, sim %.3f, closed loop %.3f\n",
		b.w.name, spread(setup.reps), spread(scan.reps), spread(parallel.reps), spread(stream.reps), spread(sim.reps), spread(closed.reps))
	if err := b.inPhase("fleet", func() error { return b.fleetFinish(closed, load) }); err != nil {
		return nil, err
	}
	b.setE2E("setup_s", "s", median(setup.reps))
	scanned, _ := b.scanSet()
	b.setE2E("scan_mbps", "MB/s", float64(totalBytes(scanned))/median(scan.reps)/1e6)
	b.setE2E("parallel_scan_mbps", "MB/s", float64(totalBytes(b.w.inputs))/median(parallel.reps)/1e6)
	b.setE2E("stream_mbps", "MB/s", float64(b.unitLen(len(b.w.stream)))/median(stream.reps)/1e6)
	b.setE2E("sim_msym_s", "Msym/s", float64(b.unitLen(int(b.simResult.Symbols)))/median(sim.reps)/1e6)
	b.setE2E("sim_nj_per_byte", "nJ/B", b.simResult.EnergyPerSymbolNJ)
	b.setE2E("sim_gbps", "Gbps", b.simResult.ThroughputGbps)

	if b.tr == nil {
		return b.result(f, b.e2e), nil
	}

	// The traced run's per-layer probes, each inside its phase.
	for _, p := range []struct {
		phase string
		f     func() error
	}{
		{"setup", func() error { return b.setupLayers(setup) }},
		{"scan", b.scanLayers},
		{"parallel", func() error { return b.parallelLayers(scan, parallel) }},
		{"stream", func() error { return b.streamLayers(stream) }},
		{"sim", func() error { b.simLayers(); return nil }},
		{"fleet", func() error { return b.fleetLayers(load) }},
	} {
		if err := b.inPhase(p.phase, p.f); err != nil {
			return nil, err
		}
	}
	spans := b.tr.snapshot()
	for _, name := range phaseNames {
		var self, total int64
		for _, s := range spans {
			if s.Parent == 0 && s.Name == "phase."+name {
				self += selfTime(spans, s.ID)
				total += s.dur()
			}
		}
		b.setLayer("trace.unattributed_pct."+name, "%", float64(self)/float64(max(total, 1))*100)
		b.setLayer("go.gc_cycles."+name, "count", float64(b.gc[name].cycles))
		b.setLayer("go.gc_pause_ms."+name, "ms", float64(b.gc[name].pauseNS)/1e6)
	}
	if err := b.tr.write(o.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "%s: %d spans written to %s\n", b.w.name, len(spans), o.spans)
	return b.result(f, b.layer), nil
}

// result counts the in-process operations and every fleet operation so far.
func (b *bench) result(f *fleet, metrics map[string]metric) *result {
	return &result{Correct: true, Attempted: b.attempted.Load() + f.ops.attempted.Load(),
		Failed: f.ops.failures(), Metrics: metrics}
}

func main() {
	o := options{log: os.Stderr}
	var trace int
	var steady int
	var heldOut int64
	flag.StringVar(&o.workload, "workload", "", "workload to run: ids-snort, logs-dense or serve-chatty")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of one run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.pins, "pins", filepath.Join("perfbench", "pins.json"), "file of pinned exact counts per workload and seed")
	flag.BoolVar(&o.writePins, "write-pins", false, "record the oracle's exact counts for -workload and -seed in -pins, then exit without measuring")
	flag.StringVar(&o.spans, "spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-<seed>.json)")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run the workload this many times, seeds -seed upwards, and report each metric's spread")
	flag.Int64Var(&heldOut, "held-out", 0, "held-out mode: run -seed and this seed and compare every metric against its bound")
	flag.Parse()
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", o.workload+"-"+strconv.FormatInt(o.seed, 10)+".json")
	}
	if flag.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case steady > 0:
		os.Exit(steadiness(o, trace, steady))
	case heldOut != 0:
		os.Exit(compareSeeds(o, heldOut))
	}
	res, err := run(o)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
