package bvap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"bvap/internal/nbva"
)

// wireSession opens a session with a match collector, feeds prefix bytes,
// and returns the session plus its wire checkpoint.
func wireSessionCheckpoint(t *testing.T, svc *Service, input []byte, interval int) ([]byte, []Match) {
	t.Helper()
	var delivered []Match
	ss, err := svc.NewSession(&SessionConfig{
		CheckpointInterval: interval,
		OnMatch:            func(m Match) { delivered = append(delivered, m) },
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := ss.Feed(nil, input); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	wire, err := ss.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	ss.Close()
	return wire, delivered
}

func TestSessionCheckpointWireRoundTrip(t *testing.T) {
	patterns := []string{"ab{2}c", "c{3}"}
	svc, err := NewService(patterns, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	input := bytes.Repeat([]byte("xabbc_ccc_"), 120)
	oracle := MustCompile(patterns).FindAll(input)
	half := len(input) / 2

	wire, delivered := wireSessionCheckpoint(t, svc, input[:half], 128)

	// Resume from bytes — as a migrated node would — and feed the rest.
	got := append([]Match(nil), delivered...)
	rs, err := svc.ResumeSessionBytes(wire, &SessionConfig{
		CheckpointInterval: 128,
		OnMatch:            func(m Match) { got = append(got, m) },
	})
	if err != nil {
		t.Fatalf("ResumeSessionBytes: %v", err)
	}
	if rs.Pos() != int64(half) {
		t.Fatalf("resumed at %d, want %d", rs.Pos(), half)
	}
	if err := rs.Feed(nil, input[half:]); err != nil {
		t.Fatalf("Feed after resume: %v", err)
	}
	rs.Close()

	if len(got) != len(oracle) {
		t.Fatalf("resumed run delivered %d matches, oracle %d", len(got), len(oracle))
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("match %d = %+v, oracle %+v — wire resume must be byte-identical", i, got[i], oracle[i])
		}
	}
}

// runnerSessionWire encodes the session checkpoint that one nbva.AHRunner
// per machine, stepped over the same input, would produce: the encoding
// Stream used before the merged scan core, built without Stream.
func runnerSessionWire(t *testing.T, e *Engine, gen uint64, runners []*nbva.AHRunner, pos int) []byte {
	t.Helper()
	snaps := make([]*nbva.RunnerSnapshot, len(runners))
	for i, r := range runners {
		if r != nil {
			snaps[i] = r.Snapshot()
		}
	}
	ck := &SessionCheckpoint{eng: e, gen: gen, ck: &StreamCheckpoint{engine: e, snaps: snaps, symbols: int64(pos)}}
	wire, err := ck.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary of per-machine snapshots: %v", err)
	}
	return wire
}

// resumeMatches resumes wire on svc, feeds input[pos:] and returns the
// matches delivered after the resume.
func resumeMatches(t *testing.T, svc *Service, wire []byte, input []byte, pos int) []Match {
	t.Helper()
	var got []Match
	rs, err := svc.ResumeSessionBytes(wire, &SessionConfig{
		CheckpointInterval: 1 << 20,
		OnMatch:            func(m Match) { got = append(got, m) },
	})
	if err != nil {
		t.Fatalf("ResumeSessionBytes at %d: %v", pos, err)
	}
	if err := rs.Feed(nil, input[pos:]); err != nil {
		t.Fatalf("Feed after resume at %d: %v", pos, err)
	}
	rs.Close()
	return got
}

// wireGoldenLine names a session wire by set, cut, byte length and SHA-256,
// the form testdata/checkpoint_wire_golden.txt holds.
func wireGoldenLine(set string, cut int, wire []byte) string {
	return fmt.Sprintf("%s %d %d %x", set, cut, len(wire), sha256.Sum256(wire))
}

// The merged scan core keeps the checkpoint wire byte-identical to the
// per-machine runner encoding, so nodes running either engine resume each
// other's sessions: at several positions the session's bytes equal those
// built from per-machine AHRunner snapshots, and resuming from the latter
// continues with the matches an uninterrupted scan finds. Both encodings
// must also equal the golden capture taken when AHRunner still had its own
// step, which pins the wire across changes to the scan core and keeps
// nodes of different versions able to resume each other's sessions.
func TestCheckpointWireMatchesPerMachineRunners(t *testing.T) {
	goldenText, err := os.ReadFile("testdata/checkpoint_wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(goldenText)), "\n") {
		if f := strings.Fields(line); len(f) == 4 {
			golden[f[0]+" "+f[1]] = line
		}
	}
	d, err := DatasetByName("Snort")
	if err != nil {
		t.Fatal(err)
	}
	snort := d.Patterns(200)
	anchored := []string{"^ab{3}c", "ab{2,4}c", "^(ab|cd){2,5}e", "((", "^a.{3}b", "c(d|a){2}b"}
	r := rand.New(rand.NewSource(7))
	alpha := make([]byte, 1200)
	for i := range alpha {
		alpha[i] = "abcde"[r.Intn(5)]
	}
	copy(alpha, "abbbcdabcde")
	for _, tc := range []struct {
		name     string
		patterns []string
		input    []byte
	}{
		{"snort", snort, d.Input(12<<10, snort)},
		{"anchored", anchored, alpha},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(tc.patterns, nil)
			if err != nil {
				t.Fatalf("NewService: %v", err)
			}
			defer svc.Close()
			e := svc.Engine()
			oracle := e.FindAll(tc.input)
			runners := make([]*nbva.AHRunner, len(e.res.Machines))
			for i, m := range e.res.Machines {
				if m != nil {
					runners[i] = nbva.NewAHRunner(m)
				}
			}
			ss, err := svc.NewSession(&SessionConfig{CheckpointInterval: 1 << 20})
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			defer ss.Close()
			n := len(tc.input)
			pos := 0
			for _, cut := range []int{0, 1, 5, n / 3, n / 2, n - 1, n} {
				if err := ss.Feed(nil, tc.input[pos:cut]); err != nil {
					t.Fatalf("Feed: %v", err)
				}
				for _, b := range tc.input[pos:cut] {
					for _, r := range runners {
						if r != nil {
							r.Step(b)
						}
					}
				}
				pos = cut
				ck := ss.Checkpoint()
				got, err := ck.MarshalBinary()
				if err != nil {
					t.Fatalf("MarshalBinary at %d: %v", cut, err)
				}
				want := runnerSessionWire(t, e, ck.Generation(), runners, cut)
				if !bytes.Equal(got, want) {
					t.Fatalf("at %d the session wire (%d B) differs from the per-machine runner wire (%d B)",
						cut, len(got), len(want))
				}
				key := fmt.Sprintf("%s %d", tc.name, cut)
				for _, w := range [][]byte{got, want} {
					if line := wireGoldenLine(tc.name, cut, w); line != golden[key] {
						t.Fatalf("wire at %d is %q, golden %q", cut, line, golden[key])
					}
				}
				var tail []Match
				for _, m := range oracle {
					if m.End >= cut {
						tail = append(tail, m)
					}
				}
				if resumed := resumeMatches(t, svc, want, tc.input, cut); !equalMatches(resumed, tail) {
					t.Fatalf("resume at %d delivered %d matches, uninterrupted scan %d", cut, len(resumed), len(tail))
				}
			}
		})
	}
}

// A wire whose machines carry different started flags (here: anchored
// machines 0 and 2 fresh, machines 1 and 3 mid-stream) resumes into
// exactly what per-machine runners in that configuration go on to report:
// the fresh anchored machines arm once more, and the started anchored
// machine 3, which would match "abbb" right after the cut, stays unarmed.
func TestCheckpointWireMixedStartedFlags(t *testing.T) {
	patterns := []string{"^ab{3}c", "ab{2,4}c", "^(ab|cd){2,5}e", "^a.{2}b"}
	svc, err := NewService(patterns, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	e := svc.Engine()
	input := []byte("abbbcdabcdeabbbc_cdcde_axxxbabbbc")
	const cut = 11
	runners := make([]*nbva.AHRunner, len(e.res.Machines))
	for i, m := range e.res.Machines {
		runners[i] = nbva.NewAHRunner(m)
		if i%2 == 1 { // machines 1 and 3 have consumed the prefix
			for _, b := range input[:cut] {
				runners[i].Step(b)
			}
		}
	}
	wire := runnerSessionWire(t, e, svc.gen.Load().Seq, runners, cut)
	ck, err := svc.DecodeSessionCheckpoint(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again, err := ck.MarshalBinary(); err != nil || !bytes.Equal(again, wire) {
		t.Fatalf("mixed-flag wire does not round-trip (err %v)", err)
	}
	var want []Match
	for pos, b := range input[cut:] {
		for i, r := range runners {
			if r.Step(b) {
				want = append(want, Match{Pattern: i, End: cut + pos})
			}
		}
	}
	if len(want) == 0 || want[0].Pattern != 0 {
		t.Fatalf("the fresh anchored machine 0 must match first in the continuation: %v", want)
	}
	if got := resumeMatches(t, svc, wire, input, cut); !equalMatches(got, want) {
		t.Fatalf("resumed matches %v, per-machine runners %v", got, want)
	}
}

func equalMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSessionCheckpointWireCorruptionRejected(t *testing.T) {
	svc, err := NewService([]string{"ab{2}c"}, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	wire, _ := wireSessionCheckpoint(t, svc, bytes.Repeat([]byte("xabbc"), 100), 64)

	// Sanity: the pristine wire decodes.
	if _, err := svc.DecodeSessionCheckpoint(wire); err != nil {
		t.Fatalf("pristine wire rejected: %v", err)
	}
	// Every single-byte corruption must be rejected (checksum), never
	// silently resumed.
	for i := 0; i < len(wire); i++ {
		mut := append([]byte(nil), wire...)
		mut[i] ^= 0x40
		if _, err := svc.DecodeSessionCheckpoint(mut); !errors.Is(err, ErrCheckpointCorrupt) {
			// A flip inside the fingerprint bytes changes the fingerprint
			// but also breaks the checksum, so corrupt is still correct.
			t.Fatalf("byte %d flipped: err = %v, want ErrCheckpointCorrupt", i, err)
		}
	}
	// Every truncation must be rejected.
	for n := 0; n < len(wire); n += 7 {
		if _, err := svc.DecodeSessionCheckpoint(wire[:n]); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCheckpointCorrupt", n, err)
		}
	}
	if _, err := svc.ResumeSessionBytes(wire[:len(wire)-1], nil); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("ResumeSessionBytes on truncated wire = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestSessionCheckpointWireSurvivesSameSetReload(t *testing.T) {
	patterns := []string{"ab{2}c"}
	svc, err := NewService(patterns, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	input := bytes.Repeat([]byte("xabbc"), 200)
	wire, delivered := wireSessionCheckpoint(t, svc, input[:500], 64)

	// Reload the SAME pattern set: new generation, equal fingerprint — the
	// wire checkpoint resumes on the freshly compiled engine.
	if _, err := svc.Reload(nil, patterns); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	got := append([]Match(nil), delivered...)
	rs, err := svc.ResumeSessionBytes(wire, &SessionConfig{OnMatch: func(m Match) { got = append(got, m) }})
	if err != nil {
		t.Fatalf("resume after same-set reload: %v", err)
	}
	if err := rs.Feed(nil, input[500:]); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	rs.Close()
	oracle := MustCompile(patterns).FindAll(input)
	if len(got) != len(oracle) {
		t.Fatalf("delivered %d matches across a same-set reload, oracle %d", len(got), len(oracle))
	}
}

func TestSessionCheckpointWireStaleAfterDifferentReload(t *testing.T) {
	svc, err := NewService([]string{"ab{2}c"}, &ServiceConfig{RetainGenerations: 1})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	wire, _ := wireSessionCheckpoint(t, svc, bytes.Repeat([]byte("xabbc"), 100), 64)

	// A semantically different reload with a retention window of 1 evicts
	// the original engine: the wire checkpoint's fingerprint resolves
	// nowhere and resume fails with the typed stale error.
	if _, err := svc.Reload(nil, []string{"zz{4}q"}); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if _, err := svc.ResumeSessionBytes(wire, nil); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("resume after different-set reload = %v, want ErrCheckpointStale", err)
	}
}

func TestSessionCheckpointRetiredGenerationRetained(t *testing.T) {
	// With the default retention window, a wire checkpoint from a RETIRED
	// generation still resumes after a different-set reload — the retained
	// engine serves it — while the in-memory handle keeps working too.
	svc, err := NewService([]string{"ab{2}c"}, nil)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	defer svc.Close()
	input := bytes.Repeat([]byte("xabbc"), 200)
	oracle := MustCompile([]string{"ab{2}c"}).FindAll(input)

	var delivered []Match
	ss, err := svc.NewSession(&SessionConfig{
		CheckpointInterval: 64,
		OnMatch:            func(m Match) { delivered = append(delivered, m) },
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := ss.Feed(nil, input[:500]); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	ck := ss.Checkpoint()
	wire, err := ck.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	ss.Close()

	if _, err := svc.Reload(nil, []string{"zz{4}q"}); err != nil {
		t.Fatalf("Reload: %v", err)
	}

	finish := func(rs *StreamSession, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		got := append([]Match(nil), delivered...)
		rs.onMatch = func(m Match) { got = append(got, m) }
		if err := rs.Feed(nil, input[500:]); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		rs.Close()
		if len(got) != len(oracle) {
			t.Fatalf("retired-generation resume delivered %d matches, oracle %d", len(got), len(oracle))
		}
		for i := range got {
			if got[i] != oracle[i] {
				t.Fatalf("match %d = %+v, oracle %+v", i, got[i], oracle[i])
			}
		}
	}
	// In-memory handle: pinned by pointer, reload-immune.
	finish(svc.ResumeSession(ck, nil))
	// Wire bytes: resolved through the retention window.
	finish(svc.ResumeSessionBytes(wire, nil))
}

// FuzzSessionCheckpointWire throws arbitrary bytes at the checkpoint
// decoder. Any input must either be rejected with a typed error or decode
// into a checkpoint that resumes and keeps matching — never panic, never
// resume into a corrupted matcher state. Seeds include genuine checkpoints
// so the fuzzer starts from the valid region and mutates outward, and
// genuine ones edited so their machines carry different started flags.
func FuzzSessionCheckpointWire(f *testing.F) {
	svc, err := NewService([]string{"ab{2}c", "a(.a){3}b"}, nil)
	if err != nil {
		f.Fatalf("NewService: %v", err)
	}
	defer svc.Close()

	corpus := bytes.Repeat([]byte("xabbc_axayaab_"), 40)
	for _, cut := range []int{0, 17, len(corpus) / 2, len(corpus)} {
		ss, err := svc.NewSession(&SessionConfig{CheckpointInterval: 32})
		if err != nil {
			f.Fatalf("NewSession: %v", err)
		}
		if err := ss.Feed(nil, corpus[:cut]); err != nil {
			f.Fatalf("Feed: %v", err)
		}
		wire, err := ss.Checkpoint().MarshalBinary()
		if err != nil {
			f.Fatalf("MarshalBinary: %v", err)
		}
		ss.Close()
		f.Add(wire)
		if cut > 0 {
			// The same position with machine 0 rewound to unstarted:
			// machines whose started flags differ.
			mixed := append([]byte(nil), wire[:len(wire)-8]...)
			mixed[34] = 0 // after the 33-byte header and machine 0's presence byte
			h := fnv.New64a()
			h.Write(mixed)
			f.Add(binary.LittleEndian.AppendUint64(mixed, h.Sum64()))
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BVCK"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		ck, err := svc.DecodeSessionCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointStale) {
				t.Fatalf("decode error is untyped: %v", err)
			}
			return
		}
		// Accepted wire must round-trip exactly and resume into a session
		// that survives further input.
		again, err := ck.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of accepted checkpoint: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted wire does not round-trip: %d vs %d bytes", len(again), len(data))
		}
		rs, err := svc.ResumeSession(ck, nil)
		if err != nil {
			t.Fatalf("resume of accepted checkpoint: %v", err)
		}
		if err := rs.Feed(nil, corpus[:64]); err != nil {
			t.Fatalf("feed after fuzz resume: %v", err)
		}
		rs.Close()
	})
}

func TestEngineFingerprintSemantics(t *testing.T) {
	a1 := MustCompile([]string{"ab{2}c", "c{3}"})
	a2 := MustCompile([]string{"ab{2}c", "c{3}"})
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Fatal("same patterns, same options: fingerprints must be equal")
	}
	if a1.Fingerprint() == MustCompile([]string{"ab{2}c"}).Fingerprint() {
		t.Fatal("different pattern sets share a fingerprint")
	}
	if a1.Fingerprint() == MustCompile([]string{"c{3}", "ab{2}c"}).Fingerprint() {
		t.Fatal("pattern order is semantic (indices name patterns in reports); fingerprints must differ")
	}
	if a1.Fingerprint() == MustCompile([]string{"ab{2}c", "c{3}"}, WithBVSize(32)).Fingerprint() {
		t.Fatal("different compile parameters share a fingerprint")
	}
}
