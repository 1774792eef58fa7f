package bvap

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"bvap/internal/swmatch"
)

func TestQuickstartFlow(t *testing.T) {
	e := MustCompile([]string{"ab{3}c", "hello"})
	matches := e.FindAll([]byte("xabbbcy hello"))
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	if matches[0].Pattern != 0 || matches[0].End != 5 {
		t.Fatalf("first match = %+v", matches[0])
	}
	if matches[1].Pattern != 1 || matches[1].End != 12 {
		t.Fatalf("second match = %+v", matches[1])
	}
	if e.Count([]byte("abbbcabbbc")) != 2 {
		t.Fatal("count wrong")
	}
}

func TestCompileOptions(t *testing.T) {
	e := MustCompile([]string{"a{100}"}, WithBVSize(16), WithUnfoldThreshold(4))
	rep := e.Report()
	if !rep.Patterns[0].Supported {
		t.Fatalf("unsupported: %s", rep.Patterns[0].Reason)
	}
	// With K=16, a{100} splits into ⌈100/16⌉ = 7 chunks.
	if rep.Patterns[0].BVSTEs < 7 {
		t.Fatalf("BVSTEs = %d", rep.Patterns[0].BVSTEs)
	}
	if _, err := Compile([]string{"a"}, WithBVSize(13)); err == nil {
		t.Fatal("invalid BV size accepted")
	}
}

func TestReportSavings(t *testing.T) {
	e := MustCompile([]string{"url=.{8000}"})
	rep := e.Report()
	p := rep.Patterns[0]
	if !p.Supported {
		t.Fatalf("unsupported: %s", p.Reason)
	}
	// §3: 8004 STEs unfolded, ~270 in BVAP.
	if p.UnfoldedSTEs != 8004 {
		t.Fatalf("unfolded = %d", p.UnfoldedSTEs)
	}
	if p.STEs >= p.UnfoldedSTEs/20 {
		t.Fatalf("BVAP STEs = %d, no compression", p.STEs)
	}
}

func TestBadPatternIsolated(t *testing.T) {
	e := MustCompile([]string{"good", "bad("})
	rep := e.Report()
	if rep.Unsupported != 1 || rep.Patterns[1].Supported {
		t.Fatalf("report = %+v", rep)
	}
	// The good pattern still matches; the bad one never does.
	ms := e.FindAll([]byte("goodbad("))
	for _, m := range ms {
		if m.Pattern == 1 {
			t.Fatal("unsupported pattern matched")
		}
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestStreamIncremental(t *testing.T) {
	e := MustCompile([]string{"ab"})
	s := e.NewStream()
	if hits := s.Step('a'); len(hits) != 0 {
		t.Fatal("premature match")
	}
	if hits := s.Step('b'); len(hits) != 1 || hits[0] != 0 {
		t.Fatal("missed match")
	}
	s.Reset()
	if hits := s.Step('b'); len(hits) != 0 {
		t.Fatal("stale state after reset")
	}
}

func TestWriteConfig(t *testing.T) {
	e := MustCompile([]string{"ab{9}c"})
	var buf bytes.Buffer
	if err := e.WriteConfig(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version"`, `"machines"`, `"tiles"`, `"is_bv"`} {
		if !strings.Contains(out, want) {
			t.Errorf("config missing %s", want)
		}
	}
}

func TestEngineAgainstReferenceMatcher(t *testing.T) {
	patterns := []string{"ab{4}c", "x.{10}y", `\d{3}`, "foo|ba{2,5}r"}
	e := MustCompile(patterns)
	r := rand.New(rand.NewSource(21))
	input := make([]byte, 3000)
	alphabet := "abcxyfor0123"
	for i := range input {
		input[i] = alphabet[r.Intn(len(alphabet))]
	}
	got := map[int][]int{}
	for _, m := range e.FindAll(input) {
		got[m.Pattern] = append(got[m.Pattern], m.End)
	}
	for i, pat := range patterns {
		want := swmatch.MustNew(pat).MatchEnds(input)
		if len(got[i]) != len(want) {
			t.Fatalf("%q: %d vs %d matches", pat, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("%q: mismatch at %d", pat, j)
			}
		}
	}
}

func TestSimulatorFlow(t *testing.T) {
	patterns := []string{"attack.{50}x", "benign"}
	e := MustCompile(patterns)
	sim, err := e.NewSimulator(ArchBVAP)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("benign attack", 200))
	sim.Run(input)
	res := sim.Result()
	if res.Symbols != uint64(len(input)) {
		t.Fatalf("symbols = %d", res.Symbols)
	}
	if res.Matches == 0 {
		t.Fatal("no matches")
	}
	if res.EnergyPerSymbolNJ <= 0 || res.AreaMm2 <= 0 || res.ThroughputGbps <= 0 {
		t.Fatalf("bad metrics: %+v", res)
	}
	// Baseline on the same patterns.
	base, err := NewBaselineSimulator(ArchCAMA, patterns)
	if err != nil {
		t.Fatal(err)
	}
	base.Run(input)
	bres := base.Result()
	if bres.Matches != res.Matches {
		t.Fatalf("matches differ: BVAP %d, CAMA %d", res.Matches, bres.Matches)
	}
}

func TestSimulatorArchValidation(t *testing.T) {
	e := MustCompile([]string{"a"})
	if _, err := e.NewSimulator(ArchCAMA); err == nil {
		t.Fatal("engine simulator accepted a baseline arch")
	}
	if _, err := NewBaselineSimulator(ArchBVAP, []string{"a"}); err == nil {
		t.Fatal("baseline simulator accepted BVAP")
	}
	for _, a := range []Architecture{ArchBVAP, ArchBVAPStreaming, ArchCAMA, ArchCA, ArchEAP, ArchCNT} {
		if a.String() == "" {
			t.Fatal("empty arch name")
		}
	}
}

func TestDatasetsAPI(t *testing.T) {
	ds := Datasets()
	if len(ds) != 7 {
		t.Fatalf("datasets = %d", len(ds))
	}
	snort, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	pats := snort.Patterns(25)
	if len(pats) != 25 {
		t.Fatalf("patterns = %d", len(pats))
	}
	in := snort.Input(1000, pats)
	if len(in) != 1000 {
		t.Fatalf("input = %d", len(in))
	}
	st := AnalyzePatterns(pats)
	if st.Regexes != 25 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := DatasetByName("missing"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestParseAndAnalyze(t *testing.T) {
	if err := ParsePattern("a{3,5}b"); err != nil {
		t.Fatal(err)
	}
	if err := ParsePattern("a("); err == nil {
		t.Fatal("bad pattern accepted")
	}
	counting, bound, unfolded, err := AnalyzePattern(".*a.{100}")
	if err != nil || !counting || bound != 100 || unfolded != 102 {
		t.Fatalf("analyze = %v %d %d %v", counting, bound, unfolded, err)
	}
}

func TestConcurrentStreams(t *testing.T) {
	// An Engine is shared; each goroutine gets its own Stream. Run with
	// -race in CI to catch accidental shared state.
	e := MustCompile([]string{"ab{5}c", "x.{20}y"})
	input := []byte(strings.Repeat("abbbbbc x12345678901234567890y ", 50))
	want := e.Count(input)
	const workers = 8
	results := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			s := e.NewStream()
			n := 0
			for _, b := range input {
				n += len(s.Step(b))
			}
			results <- n
		}()
	}
	for w := 0; w < workers; w++ {
		if got := <-results; got != want {
			t.Fatalf("worker got %d matches, want %d", got, want)
		}
	}
}

// NewStream allocates a fixed number of blocks whatever the size of the
// compiled set: the merged core's vectors live in one per-stream arena
// rather than two allocations per counting state.
func TestNewStreamAllocsIndependentOfStates(t *testing.T) {
	d, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	small := MustCompile(d.Patterns(20))
	large := MustCompile(d.Patterns(200))
	if small.Report().TotalBVSTEs >= large.Report().TotalBVSTEs {
		t.Fatalf("sets do not differ in counting states: %d vs %d",
			small.Report().TotalBVSTEs, large.Report().TotalBVSTEs)
	}
	a := testing.AllocsPerRun(20, func() { small.NewStream() })
	b := testing.AllocsPerRun(20, func() { large.NewStream() })
	if a != b {
		t.Fatalf("NewStream allocates %.0f times for 20 patterns and %.0f for 200", a, b)
	}
}
