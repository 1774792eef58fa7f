package bvap_test

// This file holds the benchmark harness for the paper's evaluation: one
// benchmark per table/figure of §8 (the corresponding exact-trace tables of
// §2–§3 are pinned by unit tests in the internal packages), plus throughput
// benchmarks of the library primitives. Custom metrics attach the
// experiment's headline numbers to the benchmark output, so
// `go test -bench .` regenerates the paper's results in one run;
// cmd/bvapbench prints the full tables.

import (
	"strings"
	"testing"

	"bvap"
	"bvap/internal/experiments"
)

// BenchmarkFig11Micro regenerates Fig. 11: BVAP vs CAMA on r·a{n} across
// repetition bounds and BV-activation ratios. The reported metrics are the
// large-bound (n=256, α=5%) normalized energy and compute density.
func BenchmarkFig11Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig11(experiments.Fig11Options{
			Ns:       []int{16, 64, 256},
			Alphas:   []float64{0.05, 0.20},
			InputLen: 8000,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.N == 256 && p.Alpha == 0.05 {
				b.ReportMetric(p.EnergyNorm, "energy/CAMA@n256")
				b.ReportMetric(p.DensityNorm, "density/CAMA@n256")
			}
		}
	}
}

// BenchmarkFig12CNT regenerates Fig. 12: BVAP vs CNT (CAMA + counters) vs
// CAMA on r·a{64}·b{m}.
func BenchmarkFig12CNT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig12(experiments.Fig12Options{
			Ms:       []int{64, 256, 512},
			InputLen: 8000,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.BVAPEnergyNorm, "BVAPenergy/CAMA@m512")
		b.ReportMetric(last.CNTEnergyNorm, "CNTenergy/CAMA@m512")
	}
}

// BenchmarkFig13DSE regenerates Fig. 13: the design space exploration over
// (bv_size, unfold_th) across the seven datasets, normalized to CAMA.
func BenchmarkFig13DSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig13(experiments.DSEOptions{
			Sample:   40,
			InputLen: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Report the Snort sweet spot.
		bestFoM := 0.0
		for _, p := range points {
			if p.Dataset == "Snort" && (bestFoM == 0 || p.FoMNorm < bestFoM) {
				bestFoM = p.FoMNorm
			}
		}
		b.ReportMetric(bestFoM, "SnortFoM/CAMA")
	}
}

// BenchmarkTable5BestFoM regenerates Table 5: the best-FoM parameters per
// dataset, selected from the DSE.
func BenchmarkTable5BestFoM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig13(experiments.DSEOptions{
			Sample:   40,
			InputLen: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		best := experiments.Table5(points)
		if len(best) != 7 {
			b.Fatalf("Table 5 rows = %d", len(best))
		}
		bv64 := 0
		for _, row := range best {
			if row.BVSize == 64 {
				bv64++
			}
		}
		b.ReportMetric(float64(bv64), "datasets-preferring-bv64")
	}
}

// BenchmarkFig14RealWorld regenerates Fig. 14 and the paper's headline
// summary: BVAP, BVAP-S, CAMA, eAP and CA across the seven real-world
// dataset profiles, normalized to CA.
func BenchmarkFig14RealWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14(experiments.Fig14Options{
			Sample:   40,
			InputLen: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.Summarize(rows)
		b.ReportMetric(s.EnergyReductionVsCAMA*100, "%energy-saved-vs-CAMA")
		b.ReportMetric(s.EnergyReductionVsCA*100, "%energy-saved-vs-CA")
		b.ReportMetric(s.EnergyReductionVsEAP*100, "%energy-saved-vs-eAP")
		b.ReportMetric(s.FoMGainVsCAMA, "FoMx-vs-CAMA")
		b.ReportMetric(s.SEnergySaving*100, "%BVAP-S-energy-saving")
	}
}

// BenchmarkAblationDesignChoices quantifies the §3/§5/§6 design decisions
// (naïve PE array, routing strategy, event-driven clocking, virtual BV
// sizing) by disabling each in isolation on the Snort profile.
func BenchmarkAblationDesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(experiments.AblationOptions{
			Sample:   40,
			InputLen: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Name {
			case "naive PE array (§3)":
				b.ReportMetric(r.AreaNorm, "naivePE-area-x")
			case "always-on BVM (§6)":
				b.ReportMetric(r.ThroughputNorm, "alwayson-throughput-x")
			}
		}
	}
}

// --- Library primitive benchmarks ---

func benchPatterns() []string {
	return []string{
		"ab{300}c",
		"attack[0-9a-f]{32}end",
		"x.{1000}y",
		`\d{3}-\d{4}`,
		"(ab|cd){12}",
	}
}

// BenchmarkCompile measures the full §7 pipeline: parse, rewrite, NBVA,
// AH transform, instruction selection, mapping, serialization.
func BenchmarkCompile(b *testing.B) {
	patterns := benchPatterns()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bvap.Compile(patterns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatchThroughput measures functional AH-NBVA matching speed.
func BenchmarkMatchThroughput(b *testing.B) {
	engine := bvap.MustCompile(benchPatterns())
	input := []byte(strings.Repeat("attack0123456789abcdef x end ", 1000))
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Count(input)
	}
}

// BenchmarkBVAPCycleSim measures the cycle-accurate simulator's own speed
// (simulated symbols per second).
func BenchmarkBVAPCycleSim(b *testing.B) {
	engine := bvap.MustCompile(benchPatterns())
	input := []byte(strings.Repeat("background traffic with attack bits ", 500))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := engine.NewSimulator(bvap.ArchBVAP)
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(input)
		sim.Result()
	}
}

// BenchmarkNewSimulatorSnort measures building a BVAP simulator over 200
// Snort patterns: one one-machine scan table and runner per machine, the
// cost every service calibration pays.
func BenchmarkNewSimulatorSnort(b *testing.B) {
	d, err := bvap.DatasetByName("Snort")
	if err != nil {
		b.Fatal(err)
	}
	engine := bvap.MustCompile(d.Patterns(200))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewSimulator(bvap.ArchBVAP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineCycleSim measures the unfolding-baseline simulator.
func BenchmarkBaselineCycleSim(b *testing.B) {
	patterns := benchPatterns()
	input := []byte(strings.Repeat("background traffic with attack bits ", 500))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := bvap.NewBaselineSimulator(bvap.ArchCAMA, patterns)
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(input)
		sim.Result()
	}
}

// BenchmarkStreamStep measures the per-byte streaming cost.
func BenchmarkStreamStep(b *testing.B) {
	engine := bvap.MustCompile(benchPatterns())
	s := engine.NewStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(byte('a' + i%26))
	}
}

// BenchmarkStride2Extension measures the Impala-style 2-stride extension:
// doubled symbol rate versus the automaton expansion it costs.
func BenchmarkStride2Extension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Stride2(experiments.Stride2Options{
			Sample:   25,
			InputLen: 1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		exp := 0.0
		for _, r := range rows {
			exp += r.Expansion
		}
		b.ReportMetric(exp/float64(len(rows)), "mean-state-expansion")
	}
}
