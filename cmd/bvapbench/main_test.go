package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailingRunKeepsObservabilityOutputs pins that a failing experiment
// still closes the observability session: the heal soak's negative control
// must come back as an error with the -metrics file written and the -trace
// file a complete JSON document.
func TestFailingRunKeepsObservabilityOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("heal soak is a wall-clock experiment")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.json")
	err := run([]string{
		"-exp", "heal", "-heal-inject-loss",
		"-heal-nodes", "3", "-heal-streams", "3",
		"-sample", "6", "-inputlen", "16384",
		"-metrics", metrics, "-trace", trace,
		"-bench-out", filepath.Join(dir, "BENCH.json"),
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "checkpoint lost") {
		t.Fatalf("run = %v, want the heal soak's checkpoint-loss error", err)
	}
	if _, serr := os.Stat(metrics); serr != nil {
		t.Fatalf("metrics file not written after a failing run: %v", serr)
	}
	raw, rerr := os.ReadFile(trace)
	if rerr != nil {
		t.Fatalf("trace file: %v", rerr)
	}
	var doc any
	if jerr := json.Unmarshal(raw, &doc); jerr != nil {
		t.Fatalf("trace file truncated after a failing run: %v\n%s", jerr, raw)
	}
}
