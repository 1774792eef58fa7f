package nbva

import (
	"bytes"
	"testing"

	"bvap/internal/regex"
)

func wireTestMachine(t *testing.T) *AHNBVA {
	t.Helper()
	return MustTransform(MustBuild(regex.MustParse("a(.a){3}b")))
}

// advance runs the runner n symbols into a repeating probe input and
// returns the symbols fed.
func advance(r *AHRunner, n int) []byte {
	in := bytes.Repeat([]byte("axayaab"), (n+6)/7)[:n]
	for _, b := range in {
		r.Step(b)
	}
	return in
}

// occupancy is a runner's four frontier counts: states, BV states, BV
// states with storage, and set1 BV states.
func occupancy(r *AHRunner) [4]int {
	return [4]int{r.ActiveStates(), r.ActiveBVStates(), r.ActiveStorageBVs(), r.ActiveSet1BVs()}
}

func TestRunnerSnapshotWireRoundTrip(t *testing.T) {
	ah := wireTestMachine(t)
	r := NewAHRunner(ah)
	advance(r, 11)
	snap := r.Snapshot()

	wire, err := snap.AppendWire(nil, ah)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	dec, rest, err := DecodeRunnerSnapshotWire(wire, ah)
	if err != nil {
		t.Fatalf("DecodeRunnerSnapshotWire: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d unconsumed bytes", len(rest))
	}
	if dec.started != snap.started {
		t.Fatalf("started = %v, want %v", dec.started, snap.started)
	}
	if len(dec.active) != len(snap.active) {
		t.Fatalf("frontier size = %d, want %d", len(dec.active), len(snap.active))
	}
	for i := range snap.active {
		if dec.active[i] != snap.active[i] {
			t.Fatalf("frontier[%d] = %d, want %d (order must be preserved)", i, dec.active[i], snap.active[i])
		}
		if snap.vecs[i].Width() > 0 && !dec.vecs[i].Equal(snap.vecs[i]) {
			t.Fatalf("vector of state %d differs after round trip", snap.active[i])
		}
	}

	// A runner restored from the wire recomputes the original's occupancy
	// counts from the frontier, and replays identically to it.
	r2 := NewAHRunner(ah)
	r2.Restore(dec)
	if got, want := occupancy(r2), occupancy(r); got != want {
		t.Fatalf("restored occupancy %v, original %v", got, want)
	}
	r3 := NewAHRunner(ah)
	advance(r3, 11)
	tail := bytes.Repeat([]byte("aaaab"), 8)
	for i, b := range tail {
		if got, want := r2.Step(b), r3.Step(b); got != want {
			t.Fatalf("replay diverged at symbol %d: wire=%v direct=%v", i, got, want)
		}
	}
}

func TestRunnerSnapshotWireFreshRunner(t *testing.T) {
	ah := wireTestMachine(t)
	snap := NewAHRunner(ah).Snapshot()
	wire, err := snap.AppendWire(nil, ah)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	dec, _, err := DecodeRunnerSnapshotWire(wire, ah)
	if err != nil {
		t.Fatalf("decode fresh snapshot: %v", err)
	}
	if dec.started || len(dec.active) != 0 {
		t.Fatalf("fresh snapshot decoded dirty: %+v", dec)
	}
	r := NewAHRunner(ah)
	advance(r, 11)
	r.Restore(dec)
	if got := occupancy(r); got != [4]int{} {
		t.Fatalf("runner restored from a fresh snapshot reports occupancy %v", got)
	}
}

func TestRunnerSnapshotWireRejectsCorruption(t *testing.T) {
	ah := wireTestMachine(t)
	r := NewAHRunner(ah)
	advance(r, 9)
	wire, err := r.Snapshot().AppendWire(nil, ah)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}

	// Every strict prefix must be rejected as truncated, never mis-decoded.
	for n := 0; n < len(wire); n++ {
		if _, _, err := DecodeRunnerSnapshotWire(wire[:n], ah); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(wire))
		}
	}

	corrupt := func(mut func(b []byte)) error {
		b := append([]byte(nil), wire...)
		mut(b)
		_, _, err := DecodeRunnerSnapshotWire(b, ah)
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 7 }); err == nil {
		t.Fatal("bad started flag accepted")
	}
	if err := corrupt(func(b []byte) { b[1], b[2] = 0xff, 0xff }); err == nil {
		t.Fatal("absurd frontier count accepted")
	}
	if err := corrupt(func(b []byte) { b[5], b[6] = 0xff, 0xff }); err == nil {
		t.Fatal("out-of-range state index accepted")
	}
}

func TestRunnerSnapshotWireRejectsWrongMachine(t *testing.T) {
	ah := wireTestMachine(t)
	r := NewAHRunner(ah)
	advance(r, 9)
	wire, err := r.Snapshot().AppendWire(nil, ah)
	if err != nil {
		t.Fatalf("AppendWire: %v", err)
	}
	// Machine identity is enforced a layer up (the session checkpoint
	// carries an engine fingerprint); this codec's obligation against a
	// foreign machine is weaker but still firm: decode either fails, or
	// yields a state fully self-consistent with the machine it was decoded
	// against — in-range indices, machine-derived widths, no stray bytes
	// silently dropped.
	other := MustTransform(MustBuild(regex.MustParse("a(.a){64}b")))
	dec, rest, err := DecodeRunnerSnapshotWire(wire, other)
	if err != nil {
		return
	}
	if len(rest) != 0 && len(rest) == len(wire) {
		t.Fatal("decode claimed success without consuming anything")
	}
	for i, q := range dec.active {
		if q < 0 || q >= len(other.States) {
			t.Fatalf("wrong-machine decode produced out-of-range state %d", q)
		}
		if w := other.States[q].Width; (w > 0) != (dec.vecs[i].Width() > 0) || (w > 0 && dec.vecs[i].Width() != w) {
			t.Fatalf("wrong-machine decode produced vector width %d for state %d (machine width %d)",
				dec.vecs[i].Width(), q, w)
		}
	}
}
