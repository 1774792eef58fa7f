package nbva

// This file gives RunnerSnapshot a wire representation so a streaming scan
// can checkpoint on one process and resume on another (live session
// migration). The format is deliberately minimal and machine-relative:
// per-state vector widths are NOT on the wire — they are derived from the
// AH-NBVA the snapshot is decoded against — and a runner restored from it
// recomputes its occupancy counts from the frontier rather than trusting
// any, so a corrupt or hostile byte stream can at worst fail decoding,
// never construct a runner state the machine itself could not reach.
//
// Layout (little-endian):
//
//	u8   started
//	u32  nactive
//	nactive × {
//	    u32 state index q              (frontier order preserved)
//	    [ceil(Width(q)/64) × u64]      (only when Width(q) > 0)
//	}
//
// Frontier order is preserved exactly because replay determinism depends on
// it: the active-list order seeds candidate discovery order on the next
// Step, so a resumed runner must iterate its frontier in the same order the
// checkpointed one would have.

import (
	"encoding/binary"
	"fmt"
)

// AppendWire appends the snapshot's wire encoding to dst and returns the
// extended slice. a must be the machine the snapshot was taken on (it
// supplies the per-state widths).
func (s *RunnerSnapshot) AppendWire(dst []byte, a *AHNBVA) ([]byte, error) {
	if s.started {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.active)))
	for i, q := range s.active {
		if q < 0 || q >= len(a.States) {
			return nil, fmt.Errorf("nbva: snapshot active state %d out of range [0,%d)", q, len(a.States))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(q))
		w := a.States[q].Width
		if w == 0 {
			continue
		}
		if s.vecs[i].Width() != w {
			return nil, fmt.Errorf("nbva: snapshot vector width %d for state %d, machine has %d",
				s.vecs[i].Width(), q, w)
		}
		for _, word := range s.vecs[i].words {
			dst = binary.LittleEndian.AppendUint64(dst, word)
		}
	}
	return dst, nil
}

// DecodeRunnerSnapshotWire decodes one snapshot from the front of data
// against machine a, returning the snapshot and the unconsumed remainder.
// Decoding validates everything the machine lets it: state indices in
// range, no duplicate frontier entries, vector payloads exactly the
// machine's width with no bits above it, and no all-zero vector on a BV
// state (an active BV state with a zero vector is dead by construction and
// cannot appear in a real frontier).
func DecodeRunnerSnapshotWire(data []byte, a *AHNBVA) (*RunnerSnapshot, []byte, error) {
	if len(data) < 5 {
		return nil, nil, fmt.Errorf("nbva: snapshot wire truncated: %d bytes", len(data))
	}
	if data[0] > 1 {
		return nil, nil, fmt.Errorf("nbva: snapshot started flag %d is not 0 or 1", data[0])
	}
	s := &RunnerSnapshot{started: data[0] == 1}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	data = data[5:]
	if n > len(a.States) {
		return nil, nil, fmt.Errorf("nbva: snapshot frontier of %d states exceeds machine size %d", n, len(a.States))
	}
	s.active = make([]int, 0, n)
	s.vecs = make([]BitVector, n)
	seen := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		if len(data) < 4 {
			return nil, nil, fmt.Errorf("nbva: snapshot wire truncated in frontier entry %d", i)
		}
		q := int(binary.LittleEndian.Uint32(data[:4]))
		data = data[4:]
		if q >= len(a.States) {
			return nil, nil, fmt.Errorf("nbva: snapshot active state %d out of range [0,%d)", q, len(a.States))
		}
		if seen[q] {
			return nil, nil, fmt.Errorf("nbva: snapshot frontier repeats state %d", q)
		}
		seen[q] = true
		s.active = append(s.active, q)
		st := &a.States[q]
		if st.Width == 0 {
			continue
		}
		words := (st.Width + 63) / 64
		if len(data) < 8*words {
			return nil, nil, fmt.Errorf("nbva: snapshot wire truncated in vector of state %d", q)
		}
		v := NewBitVector(st.Width)
		zero := true
		for w := 0; w < words; w++ {
			v.words[w] = binary.LittleEndian.Uint64(data[8*w:])
			zero = zero && v.words[w] == 0
		}
		data = data[8*words:]
		if top := st.Width & 63; top != 0 && v.words[words-1]>>uint(top) != 0 {
			return nil, nil, fmt.Errorf("nbva: snapshot vector of state %d has bits above width %d", q, st.Width)
		}
		if zero {
			return nil, nil, fmt.Errorf("nbva: snapshot has all-zero vector on BV state %d", q)
		}
		s.vecs[i] = v
	}
	return s, data, nil
}
