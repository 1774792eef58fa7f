package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"bvap"
	"bvap/internal/nca"
	"bvap/internal/regex"
	"bvap/internal/swmatch"
)

// reference holds the verified expected outputs every phase is checked
// against before its timings count.
type reference struct {
	inputs [][]bvap.Match // per scan input
	stream []bvap.Match   // over the whole stream
}

func (r *reference) scanMatches() int {
	n := 0
	for _, ms := range r.inputs {
		n += len(ms)
	}
	return n
}

// streamBefore counts the stream matches ending before offset end.
func (r *reference) streamBefore(end int) int {
	return sort.Search(len(r.stream), func(i int) bool { return r.stream[i].End >= end })
}

// buildReference runs the workload's independent oracles. Nothing of the
// program under test is used here except bvap.PatternReach, which only
// sizes the go/regexp windows (a wrong reach makes the check fail, never
// pass).
func buildReference(w *workload, workers int) (*reference, error) {
	ref := &reference{}
	for _, in := range w.inputs {
		ms, err := oracleMatches(w.oracle, w.patterns, in, workers)
		if err != nil {
			return nil, err
		}
		ref.inputs = append(ref.inputs, ms)
	}
	if len(w.inputs) == 1 && bytes.Equal(w.inputs[0], w.stream) {
		ref.stream = ref.inputs[0]
	} else {
		var err error
		if ref.stream, err = oracleMatches(w.oracle, w.patterns, w.stream, workers); err != nil {
			return nil, err
		}
	}
	if w.swmatchBytes > 0 && w.oracle != "swmatch" {
		// Cross-check the oracle itself against swmatch on a prefix.
		n := min(w.swmatchBytes, len(w.stream))
		sw, err := oracleMatches("swmatch", w.patterns, w.stream[:n], workers)
		if err != nil {
			return nil, err
		}
		if err := sameMatches(sw, ref.stream[:ref.streamBefore(n)]); err != nil {
			return nil, fmt.Errorf("%s oracle disagrees with swmatch on the first %d bytes: %w", w.oracle, n, err)
		}
	}
	if w.goRegexp {
		for i, in := range w.inputs {
			if err := checkGoRegexp(w.patterns, in, ref.inputs[i]); err != nil {
				return nil, err
			}
		}
	}
	return ref, nil
}

// oracleMatches runs one independent matcher per pattern, spread over
// workers goroutines, and returns the matches in FindAll order (by end,
// then pattern index).
func oracleMatches(kind string, patterns []string, input []byte, workers int) ([]bvap.Match, error) {
	ends := make([][]int, len(patterns))
	errs := make([]error, len(patterns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range max(workers, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(patterns) {
					return
				}
				ends[i], errs[i] = oracleEnds(kind, patterns[i], input)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []bvap.Match
	for p, es := range ends {
		for _, e := range es {
			out = append(out, bvap.Match{Pattern: p, End: e})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out, nil
}

func oracleEnds(kind, pattern string, input []byte) ([]int, error) {
	switch kind {
	case "swmatch":
		m, err := swmatch.New(pattern)
		if err != nil {
			return nil, fmt.Errorf("swmatch %q: %w", pattern, err)
		}
		return m.MatchEnds(input), nil
	case "nca":
		ast, err := regex.Parse(pattern)
		if err != nil {
			return nil, fmt.Errorf("nca %q: %w", pattern, err)
		}
		a, err := nca.Build(ast)
		if err != nil {
			return nil, fmt.Errorf("nca %q: %w", pattern, err)
		}
		return a.MatchEnds(input), nil
	}
	return nil, fmt.Errorf("unknown oracle %q", kind)
}

// checkGoRegexp checks want (every position where some match of a pattern
// ends) with go/regexp, which reports leftmost non-overlapping matches
// instead: each go/regexp match must end at a position in want, and each
// position in want must end a go/regexp match of the pattern anchored at
// its end within the pattern's reach.
func checkGoRegexp(patterns []string, input []byte, want []bvap.Match) error {
	per := make([][]int, len(patterns))
	for _, m := range want {
		per[m.Pattern] = append(per[m.Pattern], m.End)
	}
	for p, pat := range patterns {
		re, err := regexp.Compile("(?s)" + pat)
		if err != nil {
			return fmt.Errorf("go/regexp %q: %w", pat, err)
		}
		anchored := regexp.MustCompile("(?s)(?:" + pat + `)\z`)
		reach, bounded, err := bvap.PatternReach(pat)
		if err != nil || !bounded {
			return fmt.Errorf("go/regexp check needs a bounded reach for %q (err %v)", pat, err)
		}
		set := make(map[int]bool, len(per[p]))
		for _, e := range per[p] {
			set[e] = true
			if !anchored.Match(input[max(0, e+1-reach) : e+1]) {
				return fmt.Errorf("go/regexp: no match of %q ends at %d", pat, e)
			}
		}
		for _, loc := range re.FindAllIndex(input, -1) {
			if loc[1] > loc[0] && !set[loc[1]-1] {
				return fmt.Errorf("go/regexp: match of %q at [%d,%d) missing from the oracle", pat, loc[0], loc[1])
			}
		}
	}
	return nil
}

// sameMatches reports the first difference between two match lists.
func sameMatches(got, want []bvap.Match) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("match %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	return nil
}

// pin is the exact match counts of one workload and seed, taken from a
// verified run. Only counts that no correct program can change are pinned:
// simulated energy and cycles are left free, since a better hardware
// mapping is a legitimate change that should show in sim_nj_per_byte.
type pin struct {
	ScanMatches   int `json:"scan_matches"`
	StreamMatches int `json:"stream_matches"`
	SimMatches    int `json:"sim_matches"`
}

// pinFile maps workload → seed → pin.
type pinFile map[string]map[string]pin

func loadPins(path string) (pinFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pf := pinFile{}
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pf, nil
}

// countsOf returns the pinned counts of the reference.
func countsOf(w *workload, ref *reference) pin {
	return pin{
		ScanMatches:   ref.scanMatches(),
		StreamMatches: len(ref.stream),
		SimMatches:    ref.streamBefore(min(w.simBytes, len(w.stream))),
	}
}

// checkPin compares the reference counts with the pin for this workload
// and seed, if there is one.
func checkPin(pf pinFile, w *workload, seed int64, ref *reference) (pinned bool, err error) {
	p, ok := pf[w.name][strconv.FormatInt(seed, 10)]
	if !ok {
		return false, nil
	}
	if got := countsOf(w, ref); got != p {
		return true, fmt.Errorf("counts %+v differ from the pinned %+v", got, p)
	}
	return true, nil
}

// writePin records the reference counts for this workload and seed.
func writePin(path string, w *workload, seed int64, ref *reference) error {
	pf, err := loadPins(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if pf == nil {
		pf = pinFile{}
	}
	if pf[w.name] == nil {
		pf[w.name] = map[string]pin{}
	}
	pf[w.name][strconv.FormatInt(seed, 10)] = countsOf(w, ref)
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
