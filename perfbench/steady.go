package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness and held-out modes
// judge against.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// childRun runs the benchmark once in a fresh process and parses its
// result line.
func childRun(o options, trace int, seed int64) (*result, error) {
	cmd := exec.Command(os.Args[0],
		"--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--pins", o.pins)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("seed %d: outputs were wrong", seed)
	}
	return &r, nil
}

// steadiness runs the workload n times, seeds o.seed upwards, and prints
// each metric's median, quartiles and (q3 - q1) / median, flagging every
// end-to-end metric whose spread exceeds its bound. It returns the exit
// code: 1 when a run failed or a metric is flagged.
func steadiness(o options, trace, n int) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		r, err := childRun(o, trace, o.seed+int64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	fmt.Printf("%s, %d runs, seeds %d..%d, %gs each\n", o.workload, n, o.seed, o.seed+int64(n)-1, o.seconds)
	fmt.Printf("%-40s %-12s %14s %14s %14s %9s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		sp := spread(values[name])
		line := fmt.Sprintf("%-40s %-12s %14.6g %14.6g %14.6g %9.4f", name, units[name], q2, q1, q3, sp)
		runs := ""
		for _, v := range values[name] {
			runs += fmt.Sprintf(" %.4g", v)
		}
		if bound, ok := bounds[name]; ok {
			line += fmt.Sprintf(" %7.3f", bound)
			switch {
			case sp > bound:
				line += "  FLAG: spread exceeds bound"
				code = 1
			case sp > bound/3:
				line += "  above a third of the bound"
			}
		}
		fmt.Println(line)
		fmt.Println("    runs:" + runs)
	}
	return code
}

// compareSeeds runs the sizing seed o.seed and a held-out seed and shows,
// for every end-to-end metric, how far the held-out value lies from the
// sizing value, flagging any distance beyond the metric's bound.
func compareSeeds(o options, heldOut int64) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	base, err := childRun(o, 0, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	held, err := childRun(o, 0, heldOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	fmt.Printf("%s, sizing seed %d vs held-out seed %d, %gs each\n", o.workload, o.seed, heldOut, o.seconds)
	fmt.Printf("%-22s %-8s %14s %14s %9s %7s\n", "metric", "unit", "sizing", "held-out", "change", "bound")
	for _, m := range spec.EndToEnd {
		a, b := base.Metrics[m.Name].Value, held.Metrics[m.Name].Value
		change := (b - a) / a
		line := fmt.Sprintf("%-22s %-8s %14.6g %14.6g %+9.4f %7.3f", m.Name, m.Unit, a, b, change, m.Bound)
		if math.Abs(change) > m.Bound || math.IsNaN(change) {
			line += "  FLAG: beyond bound"
			code = 1
		}
		fmt.Println(line)
	}
	return code
}
