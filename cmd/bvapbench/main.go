// Command bvapbench regenerates the tables and figures of the paper's
// evaluation (§8) and runs the canonical perf harness and the service and
// fleet gates. Every experiment is declared once in the registry below; the
// -exp help text, the usage listing and the dispatch all derive from it.
//
// Usage:
//
//	bvapbench -exp <name>[,<name>...] [flags]
//	bvapbench -exp all            # every experiment in -exp all
//	bvapbench -exp perf -baseline testdata/bench_baseline.json
//
// Flags:
//
//	-sample N    regexes sampled per dataset (default 80; paper uses >300)
//	-inputlen N  corpus length per run (default 4096)
//	-datasets    comma-separated dataset subset (default all seven)
//	-dataset     the one dataset of the single-dataset experiments
//
// An experiment that produces a BENCH report (perf, soak, obs, fleetobs,
// heal, rebar) writes it as a versioned BENCH_<n>.json (schema in
// EXPERIMENTS.md) into the current directory (-bench-out overrides), and
// with -baseline compares the counted metrics against a previous report,
// failing when any metric regresses beyond its threshold. The report is
// written before the run is failed, so a failing run is archived too.
// -render adds ASCII tile-occupancy and stall heatmaps to -exp perf.
//
// Observability: -metrics writes the accrued telemetry counters (Prometheus
// text, or JSON with a .json suffix), -trace writes a structured trace with
// one span per experiment (Chrome trace_event JSON, or JSONL with a .jsonl
// suffix), and -pprof serves net/http/pprof, expvar and a live /metrics
// endpoint while the benchmarks run. Both files are written even when an
// experiment fails. The breakdown experiment attributes a run's energy to
// pipeline stages on the architecture chosen by -arch.
//
// The faults experiment sweeps a fault-injection rate over one dataset and
// reports what the resilience stack delivers: detection rate, window
// retries, software fallbacks, cross-check mismatches, and the energy
// overhead of parity protection plus re-execution (see -fault-* flags).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bvap"
	"bvap/internal/experiments"
	"bvap/internal/hwsim"
	"bvap/internal/obs"
	"bvap/internal/telemetry"
)

// experiment is one -exp registry entry. The registry is the single source
// of truth: usage text, the -exp help string and the dispatch loop are all
// generated from it, in declaration order (which is also the execution
// order of -exp all).
type experiment struct {
	name string
	desc string
	// inAll marks experiments included in -exp all. The perf harness and
	// the gates are excluded: their reports are only comparable at pinned
	// parameters, so they must be invoked deliberately.
	inAll bool
	// run prints the experiment's tables and returns its structured result
	// (stored under the experiment's name for -json; nil for none) and its
	// BENCH report (nil for none). A run may return a report together with
	// an error: the report is still written before the run fails.
	run func(a *app) (any, *experiments.BenchReport, error)
}

func registry() []experiment {
	return []experiment{
		{"fig11", "r·a{n} micro-benchmark vs CAMA", true, (*app).runFig11},
		{"fig12", "r·a{64}·b{m} vs CNT and CAMA", true, (*app).runFig12},
		{"fig13", "design space exploration grid", true, (*app).runFig13},
		{"table5", "best-FoM parameters per dataset", true, (*app).runTable5},
		{"fig14", "real-world comparison across architectures", true, (*app).runFig14},
		{"summary", "headline aggregate claims", true, (*app).runSummary},
		{"ablation", "BVAP design-choice ablation", true, (*app).runAblation},
		{"stride2", "two-symbol stride variant", true, (*app).runStride2},
		{"faults", "fault-injection resilience sweep", true, (*app).runFaults},
		{"breakdown", "per-stage energy attribution on one dataset", true, (*app).runBreakdown},
		{"perf", "canonical perf harness → BENCH_<n>.json (+ -baseline compare)", false, (*app).runPerf},
		{"soak", "service soak: crash/resume correctness + overload/reload churn → BENCH_<n>.json (+ -baseline compare)", false, (*app).runSoak},
		{"obs", "tracing overhead: disabled-path allocs, live throughput cost, energy-partition exactness → BENCH_<n>.json (+ -baseline compare)", false, (*app).runObs},
		{"fleetobs", "fleet observability gate: cross-node trace stitching, exact metrics federation, SLO burn-rate alerting, disabled-path allocs → BENCH_<n>.json (+ -baseline compare)", false, (*app).runFleetObs},
		{"heal", "self-healing soak: gossip membership, replicated checkpoints, a coordinated publish, kill/join re-placement with NO driver-side migration → BENCH_<n>.json (+ -baseline compare)", false, (*app).runHeal},
		{"rebar", "curated competitive conformance suite: verified per-engine match counts + BVAP-vs-regexp position → BENCH_<n>.json (+ -baseline compare)", false, (*app).runRebar},
	}
}

func expNames(includeAll bool) string {
	var names []string
	for _, e := range registry() {
		names = append(names, e.name)
	}
	if includeAll {
		names = append(names, "all")
	}
	return strings.Join(names, ", ")
}

// app carries the parsed flags and cross-experiment memoized state.
type app struct {
	// flags
	dataset        string
	archName       string
	faultSeed      int64
	faultRates     string
	faultStreaming bool
	faultNoParity  bool
	sample         int
	inputLen       int
	soakDuration   time.Duration
	soakScanners   int
	soakReloads    int
	soakRestarts   int
	obsScans       int
	obsRounds      int
	fleetobsNodes  int
	fleetobsScans  int
	healNodes      int
	healStreams    int
	healKills      int
	healJoins      int
	healReplicas   int
	healInjectLoss bool
	rebarDir       string
	rebarFilter    string
	rebarEngines   []string
	rebarReps      int
	datasets       []string
	archs          []string
	baselinePath   string
	benchOut       string
	render         bool

	out  io.Writer
	sess *obs.Session

	// Memoized stages shared between experiments (fig13 → table5 →
	// fig14 → summary all build on the DSE).
	dse     []experiments.DSEPoint
	dseDone bool
	fig14   []experiments.Fig14Row
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "bvapbench:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set already reported.
var errUsage = errors.New("usage")

// run is the whole command: it parses args, runs the selected experiments
// in registry order and writes -json. The observability session is closed
// on every return, so -metrics and -trace survive a failing experiment.
func run(args []string, stdout io.Writer) (err error) {
	a := &app{out: stdout}
	fs := flag.NewFlagSet("bvapbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "comma-separated experiments: "+expNames(true))
	fs.StringVar(&a.dataset, "dataset", "Snort", "dataset for the single-dataset experiments: ablation, breakdown, faults, soak, obs, fleetobs, heal")
	fs.StringVar(&a.archName, "arch", "bvap", "architecture for the -exp breakdown run: bvap, bvap-s, cama, ca, eap, cnt")
	fs.Int64Var(&a.faultSeed, "fault-seed", 1, "fault-injection seed for the -exp faults sweep")
	fs.StringVar(&a.faultRates, "fault-rates", "", "comma-separated per-site injection rates for -exp faults (default 0,1e-4,5e-4,2e-3,1e-2)")
	fs.BoolVar(&a.faultStreaming, "fault-streaming", false, "run the -exp faults sweep on BVAP-S (stream drop/dup faults)")
	fs.BoolVar(&a.faultNoParity, "fault-noparity", false, "disable the per-BV parity detection circuit in -exp faults")
	fs.IntVar(&a.sample, "sample", 80, "regexes sampled per dataset")
	fs.IntVar(&a.inputLen, "inputlen", 4096, "input corpus length")
	fs.DurationVar(&a.soakDuration, "soak-duration", 2*time.Second, "overload-phase wall bound for -exp soak")
	fs.IntVar(&a.soakScanners, "soak-scanners", 8, "concurrent scan goroutines for -exp soak")
	fs.IntVar(&a.soakReloads, "soak-reloads", 3, "concurrent hot reloads during the -exp soak overload phase")
	fs.IntVar(&a.soakRestarts, "soak-restarts", 4, "checkpoint/resume crash cycles in the -exp soak session phase")
	fs.IntVar(&a.obsScans, "obs-scans", 32, "timed scans per side per round in -exp obs")
	fs.IntVar(&a.obsRounds, "obs-rounds", 3, "alternating measurement rounds in -exp obs")
	fs.IntVar(&a.fleetobsNodes, "fleetobs-nodes", 3, "in-process nodes in the -exp fleetobs fleet")
	fs.IntVar(&a.fleetobsScans, "fleetobs-scans", 24, "forced-forward ring-routed scans in -exp fleetobs")
	fs.IntVar(&a.healNodes, "heal-nodes", 3, "initial in-process nodes in the -exp heal fleet")
	fs.IntVar(&a.healStreams, "heal-streams", 6, "concurrent sessions in -exp heal")
	fs.IntVar(&a.healKills, "heal-kills", 1, "forced node kills during -exp heal (capped at nodes-1)")
	fs.IntVar(&a.healJoins, "heal-joins", 1, "standby nodes joining mid-stream during -exp heal")
	fs.IntVar(&a.healReplicas, "heal-replicas", 2, "checkpoint replication factor R in -exp heal")
	fs.BoolVar(&a.healInjectLoss, "heal-inject-loss", false, "force R=1 so a kill loses checkpoints; the soak must then fail (negative control)")
	fs.StringVar(&a.rebarDir, "rebar-dir", "testdata/rebar", "case-file directory for -exp rebar")
	fs.StringVar(&a.rebarFilter, "rebar-filter", "", "regexp selecting case names for -exp rebar")
	rebarEngines := fs.String("rebar-engines", "", "comma-separated engine subset for -exp rebar (default: all registered engines)")
	fs.IntVar(&a.rebarReps, "rebar-reps", 2, "timed runs per (case, engine) cell in -exp rebar")
	datasetList := fs.String("datasets", "", "comma-separated dataset subset")
	archList := fs.String("archs", "", "comma-separated architecture subset for -exp perf (BVAP, BVAP-S, CAMA, CA, eAP, CNT)")
	jsonPath := fs.String("json", "", "also write the structured results as JSON to this file")
	fs.StringVar(&a.baselinePath, "baseline", "", "BENCH_<n>.json to compare the run's BENCH report against (non-zero exit on regression)")
	fs.StringVar(&a.benchOut, "bench-out", "", "where the run writes its BENCH report (default: next BENCH_<n>.json in the current directory)")
	fs.BoolVar(&a.render, "render", false, "print ASCII tile-occupancy and stall heatmaps during -exp perf")
	metricsPath := fs.String("metrics", "", "write telemetry metrics to this file (Prometheus text; .json for JSON)")
	tracePath := fs.String("trace", "", "write a structured trace to this file (Chrome trace_event JSON; .jsonl for JSONL)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, expvar and /metrics on this address")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bvapbench -exp <name>[,<name>...] [flags]\n\nexperiments:\n")
		for _, e := range registry() {
			all := ""
			if !e.inAll {
				all = " (not in -exp all)"
			}
			fmt.Fprintf(fs.Output(), "  %-10s %s%s\n", e.name, e.desc, all)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	a.datasets = splitList(*datasetList)
	a.archs = splitList(*archList)
	a.rebarEngines = splitList(*rebarEngines)

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	known := map[string]bool{"all": true}
	for _, e := range registry() {
		known[e.name] = true
	}
	for name := range want {
		if !known[name] {
			return fmt.Errorf("unknown experiment %q (want %s)", name, expNames(true))
		}
	}

	sess, err := obs.Setup(*metricsPath, *tracePath, *pprofAddr)
	if err != nil {
		return err
	}
	a.sess = sess
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	results := map[string]any{}
	for _, e := range registry() {
		if !(want[e.name] || (want["all"] && e.inAll)) {
			continue
		}
		if err := a.runOne(e, results); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// runOne runs one experiment inside its trace span and handles what it
// returns: the result goes into results under the experiment's name, and a
// BENCH report is written, then the run's own error fails it, and only a
// clean run is compared against -baseline.
func (a *app) runOne(e experiment, results map[string]any) error {
	end := a.span(e.name)
	defer end()
	res, rep, err := e.run(a)
	if res != nil {
		results[e.name] = res
	}
	if rep != nil {
		if werr := a.writeReport(rep); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	if rep == nil || a.baselinePath == "" {
		return nil
	}
	base, err := experiments.ReadBenchReport(a.baselinePath)
	if err != nil {
		return err
	}
	regs := experiments.CompareBench(rep, base, experiments.Thresholds{})
	experiments.RenderRegressions(a.out, regs)
	if len(regs) > 0 {
		return fmt.Errorf("%d counted metric(s) regressed vs %s", len(regs), a.baselinePath)
	}
	return nil
}

// writeReport writes rep to -bench-out, or to the next free BENCH_<n>.json
// in the current directory.
func (a *app) writeReport(rep *experiments.BenchReport) error {
	out := a.benchOut
	if out == "" {
		var err error
		if out, err = experiments.NextBenchPath("."); err != nil {
			return err
		}
	}
	if err := experiments.WriteBenchReport(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "wrote %s\n", out)
	return nil
}

// span wraps one experiment in a trace span (a no-op without -trace).
func (a *app) span(name string) func() {
	if a.sess == nil || a.sess.Tracer == nil {
		return func() {}
	}
	sp := a.sess.Tracer.Span(name, "bvapbench")
	return func() { sp.End() }
}

// ensureDSE memoizes the Fig. 13 exploration shared by fig13, table5,
// fig14 and summary.
func (a *app) ensureDSE() ([]experiments.DSEPoint, error) {
	if a.dseDone {
		return a.dse, nil
	}
	end := a.span("fig13-dse")
	defer end()
	dse, err := experiments.Fig13(experiments.DSEOptions{
		Sample:   a.sample,
		InputLen: a.inputLen / 2,
		Datasets: a.datasets,
	})
	if err != nil {
		return nil, err
	}
	a.dse, a.dseDone = dse, true
	return dse, nil
}

// ensureFig14 memoizes the real-world comparison shared by fig14 and
// summary.
func (a *app) ensureFig14() ([]experiments.Fig14Row, error) {
	if a.fig14 != nil {
		return a.fig14, nil
	}
	dse, err := a.ensureDSE()
	if err != nil {
		return nil, err
	}
	params := map[string]experiments.BestParams{}
	for _, b := range experiments.Table5(dse) {
		params[b.Dataset] = b
	}
	rows, err := experiments.Fig14(experiments.Fig14Options{
		Sample:   a.sample,
		InputLen: a.inputLen,
		Datasets: a.datasets,
		Params:   params,
	})
	if err != nil {
		return nil, err
	}
	a.fig14 = rows
	return rows, nil
}

func (a *app) runFig11() (any, *experiments.BenchReport, error) {
	points, err := experiments.Fig11(experiments.Fig11Options{InputLen: a.inputLen * 4})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFig11(a.out, points)
	fmt.Fprintln(a.out)
	return points, nil, nil
}

func (a *app) runFig12() (any, *experiments.BenchReport, error) {
	points, err := experiments.Fig12(experiments.Fig12Options{InputLen: a.inputLen * 4})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFig12(a.out, points)
	fmt.Fprintln(a.out)
	return points, nil, nil
}

func (a *app) runFig13() (any, *experiments.BenchReport, error) {
	dse, err := a.ensureDSE()
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFig13(a.out, dse)
	fmt.Fprintln(a.out)
	return dse, nil, nil
}

func (a *app) runTable5() (any, *experiments.BenchReport, error) {
	dse, err := a.ensureDSE()
	if err != nil {
		return nil, nil, err
	}
	best := experiments.Table5(dse)
	experiments.RenderTable5(a.out, best)
	fmt.Fprintln(a.out)
	return best, nil, nil
}

func (a *app) runFig14() (any, *experiments.BenchReport, error) {
	rows, err := a.ensureFig14()
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFig14(a.out, rows)
	fmt.Fprintln(a.out)
	return rows, nil, nil
}

func (a *app) runSummary() (any, *experiments.BenchReport, error) {
	rows, err := a.ensureFig14()
	if err != nil {
		return nil, nil, err
	}
	s := experiments.Summarize(rows)
	experiments.RenderSummary(a.out, s)
	fmt.Fprintln(a.out)
	return &s, nil, nil
}

func (a *app) runAblation() (any, *experiments.BenchReport, error) {
	rows, err := experiments.Ablation(experiments.AblationOptions{
		Dataset:  a.dataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
	})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderAblation(a.out, a.dataset, rows)
	return rows, nil, nil
}

func (a *app) runStride2() (any, *experiments.BenchReport, error) {
	rows, err := experiments.Stride2(experiments.Stride2Options{
		Sample:   a.sample,
		InputLen: a.inputLen,
		Datasets: a.datasets,
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(a.out)
	experiments.RenderStride2(a.out, rows)
	return rows, nil, nil
}

func (a *app) runFaults() (any, *experiments.BenchReport, error) {
	rates, err := parseRates(a.faultRates)
	if err != nil {
		return nil, nil, err
	}
	fopt := experiments.FaultsOptions{
		Dataset:   a.dataset,
		Sample:    a.sample,
		InputLen:  a.inputLen,
		Rates:     rates,
		Seed:      a.faultSeed,
		Streaming: a.faultStreaming,
		NoParity:  a.faultNoParity,
	}
	rows, err := experiments.Faults(fopt)
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFaults(a.out, fopt, rows)
	fmt.Fprintln(a.out)
	return rows, nil, nil
}

// runPerf runs the canonical perf harness; its BENCH report is also its
// -json result.
func (a *app) runPerf() (any, *experiments.BenchReport, error) {
	opt := experiments.PerfOptions{
		Datasets: a.datasets,
		Archs:    a.archs,
		Sample:   a.sample,
		InputLen: a.inputLen,
	}
	if a.render {
		opt.RenderTo = a.out
	}
	rep, err := experiments.Perf(opt)
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderPerf(a.out, rep)
	return rep, rep, nil
}

// runSoak exercises the long-lived scan service: a checkpoint/resume
// session interrupted by forced restarts (exact-report correctness), then
// an overload phase with concurrent scanners and hot reloads.
func (a *app) runSoak() (any, *experiments.BenchReport, error) {
	res, rep, err := experiments.Soak(experiments.SoakOptions{
		Dataset:  a.dataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
		Restarts: a.soakRestarts,
		Duration: a.soakDuration,
		Scanners: a.soakScanners,
		Reloads:  a.soakReloads,
	})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderSoak(a.out, res)
	return res, rep, nil
}

// runObs measures the observability layer's own cost: the disabled-path
// allocation contract (counted, pinned at zero), the live throughput
// overhead of an attached flight recorder (informational), and the
// bit-exactness of the traced energy partition (counted).
func (a *app) runObs() (any, *experiments.BenchReport, error) {
	res, rep, err := experiments.Obs(experiments.ObsOptions{
		Dataset:  a.dataset,
		Sample:   a.sample,
		InputLen: a.inputLen,
		Scans:    a.obsScans,
		Rounds:   a.obsRounds,
	})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderObs(a.out, res)
	return res, rep, nil
}

// runFleetObs runs the fleet observability gate: cross-node trace
// stitching with zero orphans, exact metrics federation, SLO burn-rate
// fire/resolve on an injected regression, and the zero-alloc disabled
// tracing path.
func (a *app) runFleetObs() (any, *experiments.BenchReport, error) {
	res, rep, err := experiments.FleetObs(experiments.FleetObsOptions{
		Dataset:  a.dataset,
		Nodes:    a.fleetobsNodes,
		Scans:    a.fleetobsScans,
		Sample:   a.sample,
		InputLen: a.inputLen,
	})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderFleetObs(a.out, res)
	return res, rep, nil
}

// runHeal runs the self-healing soak: gossip membership with a standby
// joining, a coordinated publish, and a node force-killed mid-stream;
// exactly-once delivery is recovered purely through replicated checkpoints
// and session sync (no driver-side migration). With -heal-inject-loss the
// run MUST fail — CI pins the non-zero exit as the negative control.
func (a *app) runHeal() (any, *experiments.BenchReport, error) {
	res, rep, err := experiments.HealSoak(experiments.HealSoakOptions{
		Dataset:    a.dataset,
		Nodes:      a.healNodes,
		Streams:    a.healStreams,
		Kills:      a.healKills,
		Joins:      a.healJoins,
		Replicas:   a.healReplicas,
		InjectLoss: a.healInjectLoss,
		Sample:     a.sample,
		InputLen:   a.inputLen,
	})
	if err != nil {
		return nil, nil, err
	}
	experiments.RenderHealSoak(a.out, res)
	return res, rep, nil
}

// runRebar runs the curated competitive conformance suite: every case's
// declared per-engine match count is asserted before any timing is
// trusted, and a count mismatch comes back with the full result and report
// so the failing run is rendered and archived before it fails.
func (a *app) runRebar() (any, *experiments.BenchReport, error) {
	res, rep, err := experiments.Rebar(experiments.RebarOptions{
		Dir:     a.rebarDir,
		Filter:  a.rebarFilter,
		Engines: a.rebarEngines,
		Reps:    a.rebarReps,
	})
	if res == nil {
		return nil, nil, err // load/config error: nothing to render
	}
	experiments.RenderRebar(a.out, res)
	return res, rep, err
}

// splitList parses a comma-separated flag value; an empty string selects
// the experiment's defaults (nil).
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}

// parseRates parses the -fault-rates list; an empty string selects the
// experiment's default sweep.
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-rates entry %q: %v", f, err)
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("bad -fault-rates entry %q: rate must be in [0, 1]", f)
		}
		out = append(out, r)
	}
	return out, nil
}

// runBreakdown replays one dataset on the architecture named by -arch with
// a per-stage telemetry sink attached and prints the energy attribution
// table: which pipeline stage (state match, transition, BVM read/swap,
// MFCB routing, I/O buffering, leakage...) consumed which share.
func (a *app) runBreakdown() (any, *experiments.BenchReport, error) {
	arch, err := bvap.ParseArchitecture(a.archName)
	if err != nil {
		return nil, nil, err
	}
	d, err := bvap.DatasetByName(a.dataset)
	if err != nil {
		return nil, nil, err
	}
	patterns := d.Patterns(a.sample)
	input := d.Input(a.inputLen, patterns)

	var sim *bvap.Simulator
	switch arch {
	case bvap.ArchBVAP, bvap.ArchBVAPStreaming:
		engine, err := bvap.Compile(patterns,
			bvap.WithMetrics(a.sess.Registry), bvap.WithTracer(a.sess.Tracer))
		if err != nil {
			return nil, nil, err
		}
		sim, err = engine.NewSimulator(arch)
		if err != nil {
			return nil, nil, err
		}
	default:
		sim, err = bvap.NewBaselineSimulator(arch, patterns)
		if err != nil {
			return nil, nil, err
		}
	}

	reg := a.sess.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	sink := hwsim.NewTelemetrySink(reg)
	sim.SetSink(sink)
	sim.Run(input)
	r := sim.Result()

	total := sink.TotalStageEnergyPJ()
	fmt.Fprintf(a.out, "energy attribution: %s over %s (%d regexes, %d bytes)\n",
		arch, a.dataset, len(patterns), len(input))
	fmt.Fprintf(a.out, "%-14s %16s %8s\n", "stage", "energy(pJ)", "share")
	for s := hwsim.Stage(0); s < hwsim.NumStages; s++ {
		pj := sink.StageEnergyPJ(s)
		if pj == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * pj / total
		}
		fmt.Fprintf(a.out, "%-14s %16.2f %7.2f%%\n", s, pj, share)
	}
	fmt.Fprintf(a.out, "%-14s %16.2f\n", "total", total)
	fmt.Fprintf(a.out, "%s\n", r)
	return nil, nil, nil
}
