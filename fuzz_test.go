package bvap

import (
	"testing"

	"bvap/internal/swmatch"
)

// FuzzEngineAgainstReference feeds arbitrary inputs to a fixed set of
// counting-heavy compiled patterns and cross-checks every match position
// against the independent reference matcher. Run with
// `go test -fuzz FuzzEngineAgainstReference .` for a longer campaign.
//
// Besides unanchored single-start patterns, the set holds an anchored
// pattern, an alternation with several initial states, and a pattern that
// fails to compile placed before them: its missing machine shifts every
// later machine's ids in the merged scan core, and it must never match.
func FuzzEngineAgainstReference(f *testing.F) {
	patterns := []string{
		"ab{3}c",
		"a(.a){3}b",
		"ab{2,30}c",
		"x(yz){4}",
		"a{1,20}b",
		"(ab",
		"^ab{3}c",
		"(ab|cd){2,5}e",
	}
	const unsupported = 5
	engine := MustCompile(patterns, WithBVSize(16), WithUnfoldThreshold(2))
	if engine.Report().Patterns[unsupported].Supported {
		f.Fatalf("pattern %q compiled; the fuzz set needs one that fails", patterns[unsupported])
	}
	refs := make([]*swmatch.Matcher, len(patterns))
	for i, pat := range patterns {
		if i != unsupported {
			refs[i] = swmatch.MustNew(pat)
		}
	}

	f.Add([]byte("abbbc"))
	f.Add([]byte("abaaabab"))
	f.Add([]byte("xyzyzyzyzyz"))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaab"))
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabc"))
	f.Add([]byte("abbbcabbbc"))
	f.Add([]byte("abcdabcde_cdcdabe"))

	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<12 {
			input = input[:1<<12]
		}
		got := map[int][]int{}
		for _, m := range engine.FindAll(input) {
			got[m.Pattern] = append(got[m.Pattern], m.End)
		}
		if len(got[unsupported]) != 0 {
			t.Fatalf("unsupported pattern %q matched at %v", patterns[unsupported], got[unsupported])
		}
		for i := range patterns {
			if i == unsupported {
				continue
			}
			want := refs[i].MatchEnds(input)
			if len(got[i]) != len(want) {
				t.Fatalf("pattern %q on %q: %v vs %v", patterns[i], input, got[i], want)
			}
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("pattern %q on %q: %v vs %v", patterns[i], input, got[i], want)
				}
			}
		}
	})
}

// FuzzCompileNeverPanics compiles arbitrary pattern strings; invalid ones
// must be reported, not crash the pipeline.
func FuzzCompileNeverPanics(f *testing.F) {
	for _, s := range []string{
		"a", "a{3000}", "(a{3}b){4}", "url=.{8000}", "(?i)[A-Z]{5}",
		"a{999999}", "((((a))))", "a|b|c{2,}", `\x00{17}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		engine, err := Compile([]string{pattern})
		if err != nil {
			t.Fatalf("Compile must isolate per-pattern failures, got %v", err)
		}
		rep := engine.Report()
		if len(rep.Patterns) != 1 {
			t.Fatal("report shape wrong")
		}
		// Supported patterns must execute without panicking.
		engine.Count([]byte("abcabc\x00\x00url=xx"))
	})
}
