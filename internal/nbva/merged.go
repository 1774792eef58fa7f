package nbva

// This file is the software engine's scan core: every pattern's AH-NBVA
// run as one automaton, the way BVAP's state-matching stage looks the
// input symbol up once for every STE of every tile and only the enabled
// states respond (§5; CAMA's CAM organisation).
//
// Merged is the immutable table, built once per compiled set; MergedRunner
// is the mutable frontier one stream owns. Global state id = the
// machine's base + the machine-local id. The runner keeps one sparse
// frontier over all machines: on Snort-scale sets it holds about 15 of
// 7,469 states per byte (0.2%), so a list costs less than a pass over a
// dense bitset.
//
// Step is the tree's only AH step (§3: read, OR-aggregate, apply the
// destination's action, commit); AHRunner is a view of a one-machine
// table. A step keeps one order: seeds first (machine order, then each
// machine's initial-list order), then targets of enabled edges in frontier
// order. Projected onto one machine, the candidate and frontier lists are
// therefore exactly those of a one-machine table, which is what keeps
// checkpoints (Snapshots / Restore) wire-compatible with per-machine runner
// snapshots.

import (
	"math"
	"slices"
	"unsafe"

	"bvap/internal/charclass"
)

// Merged is the immutable scan table of a set of AH-NBVAs. It references
// the machines' States and in-edge indexes in place rather than copying
// them; per state it adds only the few words the step loop reads.
type Merged struct {
	machines []*AHNBVA // nil for patterns that did not compile
	base     []int32   // machine → global id of its local state 0
	// Per global state, as separate arrays so each loop of a step
	// touches only the one it reads: the owning machine, the class id,
	// the index of its bvState (counting states only), and the s* flags.
	owner, class, bv []int32
	flags            []uint8
	bvs              []bvState
	// classBits holds, for each input byte, a bitset over class ids:
	// bit c of row b is set when class c contains b (the state-matching
	// stage's byte → class-mask table).
	classBits  []uint64
	classWords int
	words      int // vector arena size, in words
	// seeds has one row per input byte: the initial states whose class
	// holds it; anchoredSeeds does the same for anchored machines, which
	// arm only before their first symbol.
	seeds, anchoredSeeds adjacency
	// out indexes every machine's out-edges by global id, with global
	// neighbour ids (see adjacency). It repeats the machines' own out
	// index, 4 B per state and per edge, because resolving each frontier
	// state's row through its machine cost about a third of the scan
	// time; in-edges, read only for counting states, stay per machine.
	out adjacency
}

const (
	sBV      uint8 = 1 << iota // carries a bit vector
	sNeedVec                   // BV state whose action reads its input (copy/shift)
	sShift                     // BV state whose action is shift
	sRead                      // BV state with a non-trivial read
	sFinal
)

// bvState is what a step needs of a counting state: its vector's width and
// offset in a runner's arena, and the bounds of its read r(lo, hi).
type bvState struct {
	off, width, lo, hi int32
}

// NewMerged builds the merged table over machines; a nil machine (an
// unsupported pattern) keeps its index and contributes no states.
func NewMerged(machines []*AHNBVA) *Merged {
	m := &Merged{machines: machines, base: make([]int32, len(machines))}
	n, edges, bvs := 0, 0, 0
	for i, a := range machines {
		m.base[i] = int32(n)
		if a != nil {
			n += len(a.States)
			edges += len(a.Edges)
			bvs += a.BVStateCount()
		}
	}
	m.owner = make([]int32, 0, n)
	m.class = make([]int32, 0, n)
	m.bv = make([]int32, 0, n)
	m.flags = make([]uint8, 0, n)
	m.bvs = make([]bvState, 0, bvs)
	m.out = adjacency{start: make([]int32, 1, n+1), list: make([]int32, 0, edges)}
	classID := make(map[charclass.Class]int32, n)
	classes := make([]charclass.Class, 0, n)
	// The distinct initial states, in machine order and then each
	// machine's initial-list order.
	var seeds, anchored []int32
	for i, a := range machines {
		if a == nil {
			continue
		}
		base := m.base[i]
		for q := range a.States {
			for _, x := range a.out.row(q) {
				m.out.list = append(m.out.list, x+2*base)
			}
			m.out.start = append(m.out.start, int32(len(m.out.list)))
			st := &a.States[q]
			c, ok := classID[st.Class]
			if !ok {
				c = int32(len(classes))
				classID[st.Class] = c
				classes = append(classes, st.Class)
			}
			var flags uint8
			bv := int32(len(m.bvs))
			if st.Width > 0 {
				flags |= sBV
				m.bvs = append(m.bvs, bvState{off: int32(m.words), width: int32(st.Width),
					lo: int32(st.Read.Lo), hi: int32(st.Read.Hi)})
				m.words += (st.Width + 63) / 64
				if st.Action != ActSet1 {
					flags |= sNeedVec
				}
				if st.Action == ActShift {
					flags |= sShift
				}
				if !st.Read.None {
					flags |= sRead
				}
			}
			m.owner = append(m.owner, int32(i))
			m.class = append(m.class, c)
			m.bv = append(m.bv, bv)
			m.flags = append(m.flags, flags)
		}
		for _, q := range a.Finals {
			m.flags[base+int32(q)] |= sFinal
		}
		inits := &seeds
		if a.Anchored {
			inits = &anchored
		}
		mine := len(*inits)
		for _, q := range a.Initial {
			if g := base + int32(q); !slices.Contains((*inits)[mine:], g) {
				*inits = append(*inits, g)
			}
		}
	}
	// Walking each class's members rather than testing all 256 bytes
	// keeps one-machine tables (one per AHRunner) cheap to build.
	m.classWords = (len(classes) + 63) / 64
	m.classBits = make([]uint64, 256*m.classWords)
	var members []byte
	for c, cl := range classes {
		members = cl.AppendSymbols(members[:0])
		for _, b := range members {
			m.classBits[int(b)*m.classWords+c>>6] |= 1 << (c & 63)
		}
	}
	m.seeds = m.byteRows(seeds)
	m.anchoredSeeds = m.byteRows(anchored)
	return m
}

// noRows has an empty row for every input byte; it is never written.
var noRows = adjacency{start: make([]int32, 257)}

// byteRows packs, for each input byte, the states of gs whose class holds
// it, in the order of gs.
func (m *Merged) byteRows(gs []int32) adjacency {
	if len(gs) == 0 {
		return noRows
	}
	x := adjacency{start: make([]int32, 1, 257)}
	for b := 0; b < 256; b++ {
		row := m.classBits[b*m.classWords:]
		for _, g := range gs {
			if c := m.class[g]; row[c>>6]&(1<<(c&63)) != 0 {
				x.list = append(x.list, g)
			}
		}
		x.start = append(x.start, int32(len(x.list)))
	}
	return x
}

// MergedRunner executes a Merged table over one input stream. It is not
// safe for concurrent use.
//
// Its size is padded to a multiple of 64 B: the allocator's size class is
// then a multiple of the cache line too, so every runner starts on a line
// of its own. Grown to 344 B without the pad, a runner lands in the 352 B
// class, where two parallel workers' runners share a line that both write
// on every step: logs-dense parallel scan fell from 19–23 to 13–16 MB/s
// on two CPUs, with the sequential scan unchanged.
type MergedRunner struct {
	// The pad leads: a zero-size trailing field would itself be padded.
	_ [(64 - unsafe.Sizeof(mergedRunner{})%64) % 64]byte
	mergedRunner
}

type mergedRunner struct {
	m *Merged
	// vecs and nextVecs are the current and build vector arenas. The
	// double buffer matters: aggregation must read a source's old vector
	// even when that source is itself rewritten as a destination this
	// step (e.g. mutually-fed shift loops).
	vecs, nextVecs []uint64

	// activeStamp[g] == epoch marks g active, candStamp[g] == epoch+1
	// marks it a candidate of the step in progress, and hitStamp[i] ==
	// epoch+1 marks machine i reported by it. All three share one
	// allocation, cleared when the epoch would wrap (see advance).
	stamps                           []uint32
	activeStamp, candStamp, hitStamp []uint32
	epoch                            uint32

	readOK                []bool
	active, cand, scratch []int32

	// started is per machine, so checkpoints carry each machine's flag;
	// allStarted skips the anchored seeds once every machine has consumed
	// a symbol.
	started    []bool
	allStarted bool

	hits []int
	// swaps counts the latest step's vector deliveries, one per OR into
	// a copy/shift state and one per set1 state entered. The simulator's
	// other counts come off the frontiers (readOps, occupancy).
	swaps int
}

// NewRunner returns a runner in the start-of-stream configuration. Its
// allocation count does not depend on the table's size.
func (m *Merged) NewRunner() *MergedRunner {
	n := len(m.flags)
	stamps := make([]uint32, 2*n+len(m.machines))
	arena := make([]uint64, 2*m.words)
	return &MergedRunner{mergedRunner: mergedRunner{
		m:           m,
		vecs:        arena[:m.words:m.words],
		nextVecs:    arena[m.words:],
		stamps:      stamps,
		activeStamp: stamps[:n:n],
		candStamp:   stamps[n : 2*n : 2*n],
		hitStamp:    stamps[2*n:],
		epoch:       1,
		readOK:      make([]bool, n),
		started:     make([]bool, len(m.machines)),
	}}
}

// advance moves the epoch forward by k. Before the uint32 counter would
// wrap, every stamp is cleared and the frontier re-stamped at epoch 1, so
// stamps from 2^32 steps ago can never alias the current ones.
func (r *MergedRunner) advance(k uint32) {
	if r.epoch > math.MaxUint32-4 {
		clear(r.stamps)
		r.epoch = 1
		for _, g := range r.active {
			r.activeStamp[g] = 1
		}
	}
	r.epoch += k
}

// vec returns global BV state g's vector in arena buf.
func (r *MergedRunner) vec(buf []uint64, g int32) BitVector {
	b := &r.m.bvs[r.m.bv[g]]
	return BitVector{width: int(b.width), words: buf[b.off : b.off+(b.width+63)/64]}
}

// read evaluates BV state g's read on its current vector.
func (r *MergedRunner) read(g int32) bool {
	b := &r.m.bvs[r.m.bv[g]]
	return r.vec(r.vecs, g).AnyInRange(int(b.lo), int(b.hi))
}

// Reset returns the runner to the start-of-stream configuration.
func (r *MergedRunner) Reset() {
	r.active = r.active[:0]
	r.advance(2)
	clear(r.started)
	r.allStarted = len(r.started) == 0
	r.scratch, r.swaps = r.scratch[:0], 0
}

// ActiveStates returns the number of active states, over all machines,
// after the latest step.
func (r *MergedRunner) ActiveStates() int { return len(r.active) }

// Step consumes one input symbol and returns, in ascending order, the
// machines for which a match ends at it. The slice is reused by the next
// call.
func (r *MergedRunner) Step(b byte) []int {
	m := r.m
	r.advance(0)
	cur := r.epoch
	next := cur + 1

	// Read step: evaluate each active BV state's read once.
	for _, g := range r.active {
		r.readOK[g] = m.flags[g]&sRead == 0 || r.read(g)
	}

	// Candidates: armed initial states that hold b, then targets of
	// enabled edges out of the frontier whose class holds b.
	r.cand = r.cand[:0]
	for _, g := range m.seeds.row(int(b)) {
		r.candStamp[g] = next
		r.cand = append(r.cand, g)
	}
	if !r.allStarted {
		for _, g := range m.anchoredSeeds.row(int(b)) {
			if !r.started[m.owner[g]] {
				r.candStamp[g] = next
				r.cand = append(r.cand, g)
			}
		}
	}
	classRow := m.classBits[int(b)*m.classWords : (int(b)+1)*m.classWords]
	for _, p := range r.active {
		ok := r.readOK[p]
		for _, x := range m.out.row(int(p)) {
			if x&1 != 0 && !ok {
				continue
			}
			q := x >> 1
			if r.candStamp[q] == next {
				continue
			}
			r.candStamp[q] = next
			if c := m.class[q]; classRow[c>>6]&(1<<(c&63)) != 0 {
				r.cand = append(r.cand, q)
			}
		}
	}

	// Bit-vector processing. Every candidate is an armed initial state
	// or the target of an enabled edge, so it fires; only states whose
	// action reads an input vector aggregate (OR) their enabled sources,
	// and they die when that vector is zero.
	r.scratch = r.scratch[:0]
	swaps := 0
	for _, q := range r.cand {
		flags := m.flags[q]
		switch {
		case flags&sBV == 0:
		case flags&sNeedVec == 0:
			r.vec(r.nextVecs, q).SetOnly1()
			swaps++
		default:
			v := r.vec(r.nextVecs, q)
			v.Clear()
			i := m.owner[q]
			base := m.base[i]
			for _, x := range m.machines[i].in.row(int(q - base)) {
				from := base + x>>1
				if r.activeStamp[from] != cur || (x&1 != 0 && !r.readOK[from]) ||
					m.flags[from]&sBV == 0 {
					continue
				}
				v.OrFrom(r.vec(r.vecs, from))
				swaps++
			}
			if flags&sShift != 0 {
				v.ShiftFrom(v)
			}
			if v.IsZero() {
				continue // a BV state with a zero vector is dead
			}
		}
		r.scratch = append(r.scratch, q)
	}
	r.swaps = swaps

	// Commit, and report each machine with an accepting state once. The
	// frontier the step started from stays in scratch until the next step.
	r.vecs, r.nextVecs = r.nextVecs, r.vecs
	r.active, r.scratch = r.scratch, r.active
	r.hits = r.hits[:0]
	for _, q := range r.active {
		r.activeStamp[q] = next
		flags := m.flags[q]
		if flags&sFinal == 0 {
			continue
		}
		if flags&sRead == 0 || r.read(q) {
			if i := m.owner[q]; r.hitStamp[i] != next {
				r.hitStamp[i] = next
				r.hits = append(r.hits, int(i))
			}
		}
	}
	if len(r.hits) > 1 {
		slices.Sort(r.hits)
	}
	if !r.allStarted {
		for i := range r.started {
			r.started[i] = true
		}
		r.allStarted = true
	}
	r.epoch = next
	return r.hits
}

// Snapshots projects the runner's configuration onto its machines: entry i
// is what machine i's AHRunner.Snapshot would hold after the same input
// (nil for a nil machine), so the per-machine wire form is unchanged.
func (r *MergedRunner) Snapshots() []*RunnerSnapshot {
	m := r.m
	out := make([]*RunnerSnapshot, len(m.machines))
	for i, a := range m.machines {
		if a != nil {
			out[i] = &RunnerSnapshot{started: r.started[i]}
		}
	}
	for _, g := range r.active {
		i := m.owner[g]
		s := out[i]
		s.active = append(s.active, int(g-m.base[i]))
		var v BitVector
		if m.flags[g]&sBV != 0 {
			v = r.vec(r.vecs, g).Clone()
		}
		s.vecs = append(s.vecs, v)
	}
	return out
}

// Restore rewinds the runner to per-machine snapshots, one per machine; a
// nil entry leaves its machine at the start of the stream. The frontier is
// the machines' frontiers concatenated in machine order; each machine's
// own order, the only order a step depends on, is kept.
func (r *MergedRunner) Restore(snaps []*RunnerSnapshot) {
	m := r.m
	r.active = r.active[:0]
	r.scratch, r.swaps = r.scratch[:0], 0
	r.advance(2)
	clear(r.started)
	for i, s := range snaps {
		if s == nil {
			continue
		}
		r.started[i] = s.started
		base := m.base[i]
		for k, q := range s.active {
			g := base + int32(q)
			r.active = append(r.active, g)
			r.activeStamp[g] = r.epoch
			if s.vecs[k].Width() > 0 {
				r.vec(r.vecs, g).CopyFrom(s.vecs[k])
			}
		}
	}
	r.allStarted = !slices.Contains(r.started, false)
}

// readOps counts the latest step's reads: one per BV state with a read in
// the frontier the step started from.
func (r *MergedRunner) readOps() int {
	n := 0
	for _, g := range r.scratch {
		if r.m.flags[g]&sRead != 0 {
			n++
		}
	}
	return n
}

// occupancy counts the active BV states and, among them, the set1 states
// (power-gated constant generators; the rest hold storage).
func (r *MergedRunner) occupancy() (bv, set1 int) {
	for _, g := range r.active {
		if f := r.m.flags[g]; f&sBV != 0 {
			bv++
			if f&sNeedVec == 0 {
				set1++
			}
		}
	}
	return bv, set1
}

// isActive reports whether global state g is active.
func (r *MergedRunner) isActive(g int32) bool { return r.activeStamp[g] == r.epoch }

// vector returns global state g's current vector (the zero BitVector for
// a state without one); it is meaningful only while g is active.
func (r *MergedRunner) vector(g int32) BitVector {
	if r.m.flags[g]&sBV == 0 {
		return BitVector{}
	}
	return r.vec(r.vecs, g)
}

// flipBit inverts bit (1-based) of active BV state g's vector and reports
// whether it did.
func (r *MergedRunner) flipBit(g int32, bit int) bool {
	if !r.isActive(g) || r.m.flags[g]&sBV == 0 || bit < 1 || bit > int(r.m.bvs[r.m.bv[g]].width) {
		return false
	}
	r.vec(r.vecs, g).Flip(bit)
	return true
}

// deactivate drops g from the frontier, keeping the order of the rest,
// and reports whether g was active. Its vector is left as garbage.
func (r *MergedRunner) deactivate(g int32) bool {
	if !r.isActive(g) {
		return false
	}
	i := slices.Index(r.active, g)
	r.active = slices.Delete(r.active, i, i+1)
	r.activeStamp[g] = 0
	return true
}

// forceActive appends idle state g to the frontier, a BV state with the
// vector [1,0,…,0], and reports whether g was idle.
func (r *MergedRunner) forceActive(g int32) bool {
	if g < 0 || int(g) >= len(r.m.flags) || r.isActive(g) {
		return false
	}
	r.activeStamp[g] = r.epoch
	r.active = append(r.active, g)
	if r.m.flags[g]&sBV != 0 {
		r.vec(r.vecs, g).SetOnly1()
	}
	return true
}
