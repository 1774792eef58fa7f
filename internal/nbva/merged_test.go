package nbva

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"bvap/internal/regex"
)

// randMachineSet builds a random machine set: counting patterns, some
// anchored, with nil entries standing in for patterns that failed to
// compile (they shift every later machine's global ids).
func randMachineSet(t *testing.T, r *rand.Rand) []*AHNBVA {
	t.Helper()
	var ms []*AHNBVA
	for len(ms) < 2+r.Intn(6) {
		switch r.Intn(6) {
		case 0:
			ms = append(ms, nil)
			continue
		case 1:
			pat := "^" + randCountingPattern(r)
			ms = append(ms, mustAH(t, pat))
		default:
			pat := randCountingPattern(r)
			if r.Intn(3) == 0 {
				pat = "(" + pat + "|" + randCountingPattern(r) + ")"
			}
			ms = append(ms, mustAH(t, pat))
		}
	}
	return ms
}

func mustAH(t *testing.T, pat string) *AHNBVA {
	t.Helper()
	n, err := regex.Parse(pat)
	if err != nil {
		t.Fatalf("parse %q: %v", pat, err)
	}
	src, err := Build(n)
	if err != nil {
		return nil // outside NBVA's reach: a nil machine, as the compiler leaves
	}
	return MustTransform(src)
}

func newRunners(ms []*AHNBVA) []*AHRunner {
	rs := make([]*AHRunner, len(ms))
	for i, a := range ms {
		if a != nil {
			rs[i] = NewAHRunner(a)
		}
	}
	return rs
}

// stepRunners steps every per-machine runner and returns the matching
// machines in ascending order plus the total frontier size.
func stepRunners(rs []*AHRunner, b byte) (hits []int, active int) {
	for i, r := range rs {
		if r == nil {
			continue
		}
		if r.Step(b) {
			hits = append(hits, i)
		}
		active += r.ActiveStates()
	}
	return hits, active
}

// runnerCounts sums the per-machine runners' read, swap, active-BV and
// set1 counts of the latest step.
func runnerCounts(rs []*AHRunner) [4]int {
	var c [4]int
	for _, r := range rs {
		if r != nil {
			c[0] += r.ReadOps()
			c[1] += r.SwapOps()
			c[2] += r.ActiveBVStates()
			c[3] += r.ActiveSet1BVs()
		}
	}
	return c
}

// wireOf encodes per-machine snapshots the way a session checkpoint does.
func wireOf(t *testing.T, ms []*AHNBVA, snaps []*RunnerSnapshot) []byte {
	t.Helper()
	var buf []byte
	for i, s := range snaps {
		if s == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		var err error
		if buf, err = s.AppendWire(buf, ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func runnerSnaps(rs []*AHRunner) []*RunnerSnapshot {
	out := make([]*RunnerSnapshot, len(rs))
	for i, r := range rs {
		if r != nil {
			out[i] = r.Snapshot()
		}
	}
	return out
}

// The merged core must be observationally identical to one AHRunner per
// machine: the same matches in ascending machine order, the same total
// frontier, read, swap, active-BV and set1 counts, and, projected onto
// each machine, the same frontier order and vectors, so its snapshots
// encode to the same bytes.
func TestMergedMatchesPerMachineRunners(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ms := randMachineSet(t, r)
		merged := NewMerged(ms).NewRunner()
		rs := newRunners(ms)
		input := make([]byte, 40)
		for i := range input {
			input[i] = byte('a' + r.Intn(3))
		}
		for pos, b := range input {
			want, active := stepRunners(rs, b)
			got := merged.Step(b)
			if !equalInts(got, want) {
				t.Fatalf("seed %d pos %d: merged hits %v, runners %v", seed, pos, got, want)
			}
			if merged.ActiveStates() != active {
				t.Fatalf("seed %d pos %d: merged frontier %d, runners %d", seed, pos, merged.ActiveStates(), active)
			}
			bv, set1 := merged.occupancy()
			got4 := [4]int{merged.readOps(), merged.swaps, bv, set1}
			if want4 := runnerCounts(rs); got4 != want4 {
				t.Fatalf("seed %d pos %d: merged read/swap/BV/set1 counts %v, runner sums %v", seed, pos, got4, want4)
			}
			if !bytes.Equal(wireOf(t, ms, merged.Snapshots()), wireOf(t, ms, runnerSnaps(rs))) {
				t.Fatalf("seed %d pos %d: merged snapshot wire differs from per-machine runners", seed, pos)
			}
		}
	}
}

// Restoring per-machine snapshots, including ones whose machines carry
// different started flags, resumes exactly where per-machine runners
// restored from the same snapshots go.
func TestMergedRestoreFromRunnerSnapshots(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ms := randMachineSet(t, r)
		rs := newRunners(ms)
		input := make([]byte, 48)
		for i := range input {
			input[i] = byte('a' + r.Intn(3))
		}
		cut := r.Intn(len(input))
		for _, b := range input[:cut] {
			stepRunners(rs, b)
		}
		snaps := runnerSnaps(rs)
		// Rewind some machines to a fresh, unstarted runner.
		for i, a := range ms {
			if a != nil && r.Intn(3) == 0 {
				rs[i] = NewAHRunner(a)
				snaps[i] = rs[i].Snapshot()
			}
		}
		merged := NewMerged(ms).NewRunner()
		merged.Step('a') // state that Restore must discard
		merged.Restore(snaps)
		if !bytes.Equal(wireOf(t, ms, merged.Snapshots()), wireOf(t, ms, snaps)) {
			t.Fatalf("seed %d: restored merged snapshot does not re-encode to its input", seed)
		}
		for pos, b := range input[cut:] {
			want, _ := stepRunners(rs, b)
			if got := merged.Step(b); !equalInts(got, want) {
				t.Fatalf("seed %d pos %d after restore: merged hits %v, runners %v", seed, cut+pos, got, want)
			}
		}
	}
}

func TestMergedResetAndAllocs(t *testing.T) {
	ms := []*AHNBVA{mustAH(t, "^ab{3}c"), nil, mustAH(t, "(ab|cd){2,5}e"), mustAH(t, "a(.a){3}b")}
	m := NewMerged(ms)
	rn := m.NewRunner()
	input := []byte("abbbcdabcdcde_abbbc_aaaaaaab_ababcde")
	var first [][]int
	for _, b := range input {
		first = append(first, append([]int(nil), rn.Step(b)...))
	}
	rn.Reset()
	for i, b := range input {
		if got := rn.Step(b); !equalInts(got, first[i]) {
			t.Fatalf("pos %d after Reset: %v, first pass %v", i, got, first[i])
		}
	}
	if len(first[4]) != 1 || first[4][0] != 0 {
		t.Fatalf("anchored ^ab{3}c must match at 4 only on the first pass: %v", first[4])
	}
	if avg := testing.AllocsPerRun(20, func() {
		for _, b := range input {
			rn.Step(b)
		}
	}); avg != 0 {
		t.Fatalf("MergedRunner.Step allocated %.1f times per pass, want 0", avg)
	}
}

// Machines are reported in ascending order even when the frontier reaches
// a later machine's accepting state first: here "bc" accepts from a seed
// of the previous byte, which precedes "ab{2}c"'s deeper states.
func TestMergedHitsAscending(t *testing.T) {
	rn := NewMerged([]*AHNBVA{mustAH(t, "ab{2}c"), mustAH(t, "bc")}).NewRunner()
	var got []int
	for _, b := range []byte("abbc") {
		got = rn.Step(b)
	}
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("hits at the last byte = %v, want [0 1]", got)
	}
}

// Stamps are uint32: a runner whose epoch is about to wrap clears them and
// carries on with the same frontier and matches.
func TestMergedEpochWrap(t *testing.T) {
	ms := []*AHNBVA{mustAH(t, "a(.a){3}b"), mustAH(t, "ab{2,5}c")}
	input := []byte("abaaababbbbcaxayaab_abbc")
	want := NewMerged(ms).NewRunner()
	got := NewMerged(ms).NewRunner()
	got.epoch = math.MaxUint32 - 9
	for pos, b := range input {
		w := append([]int(nil), want.Step(b)...)
		if g := got.Step(b); !equalInts(g, w) || got.ActiveStates() != want.ActiveStates() {
			t.Fatalf("pos %d (epoch %d): hits %v, want %v", pos, got.epoch, g, w)
		}
	}
	if got.epoch > 1<<10 {
		t.Fatalf("epoch %d did not wrap", got.epoch)
	}
}

// A runner's size is a multiple of the cache line, so runners of parallel
// workers never share one (see MergedRunner).
func TestMergedRunnerSizeIsCacheLineMultiple(t *testing.T) {
	if n := unsafe.Sizeof(MergedRunner{}); n%64 != 0 {
		t.Fatalf("MergedRunner is %d B, not a multiple of 64", n)
	}
}
