package nbva

import (
	"fmt"

	"bvap/internal/charclass"
)

// This file implements the Action-Homogeneous transformation of §4 and the
// execution semantics of AH-NBVAs (§3, "BVAP Solution"): a state with k
// distinct incoming actions is split into k copies, each copy receives the
// incoming transitions with its action and inherits all outgoing transitions
// of the original, and afterwards the action can be attached to the state.
//
// In AH form the per-destination aggregation (bitwise OR) happens *before*
// the action is applied; the two orders agree because every action is linear
// with respect to OR.

// AHState is a state of an AH-NBVA. Beyond the NBVA state it carries the
// state's single incoming Action and its single Read instruction — the read
// all of its outgoing guarded transitions (and its finalization, if it is a
// reporting state) evaluate on its vector. This pair is exactly what the
// hardware's per-BV instruction (Table 3) encodes.
type AHState struct {
	Class  charclass.Class
	Width  int
	Action Action
	Read   Read
}

// AHEdge is a transition of an AH-NBVA. It carries no action (the
// destination state owns it); Gated records whether the transition requires
// the source state's read to pass.
type AHEdge struct {
	From  int
	To    int
	Gated bool
}

// AHNBVA is an action-homogeneous NBVA.
type AHNBVA struct {
	States       []AHState
	Initial      []int
	Edges        []AHEdge
	Finals       []int // finalization uses the state's own Read
	AcceptsEmpty bool
	// Anchored restricts matches to begin at the first input symbol.
	Anchored bool

	// out and in index Edges by source and by destination (see
	// adjacency); AHRunner and the merged scan core both walk them.
	out, in adjacency
	// Origin maps each AH state back to the NBVA state it was split
	// from, for diagnostics and for the compiler's reports.
	Origin []int
}

// Size returns the number of control states (the STE count for hardware).
func (a *AHNBVA) Size() int { return len(a.States) }

// BVStateCount returns the number of states that carry a bit vector (the
// BV-STE count; each BVAP tile provisions 48 of these).
func (a *AHNBVA) BVStateCount() int {
	n := 0
	for _, s := range a.States {
		if s.Width > 0 {
			n++
		}
	}
	return n
}

// Finalize prepares an externally constructed AH-NBVA for execution by
// building the edge indexes. Transform calls it automatically; the hardware
// simulator calls it after reconstructing a machine from its JSON
// configuration.
func (a *AHNBVA) Finalize() { a.finalize() }

func (a *AHNBVA) finalize() {
	a.out = buildAdjacency(len(a.States), a.Edges, func(e *AHEdge) (int, int) { return e.From, e.To })
	a.in = buildAdjacency(len(a.States), a.Edges, func(e *AHEdge) (int, int) { return e.To, e.From })
}

// adjacency is a compressed-sparse-row index: row q's entries are
// list[start[q]:start[q+1]]. As an edge index (buildAdjacency) a row is in
// Edges order, and each entry packs the state at the edge's other end
// shifted left by one with the edge's Gated flag in bit 0. Two int32
// arrays per direction replace a slice header per state plus an int per
// edge, and a step reads the neighbour without touching Edges.
type adjacency struct {
	start []int32
	list  []int32
}

// buildAdjacency indexes edges by the row end returns first; the second
// end is the packed neighbour.
func buildAdjacency(n int, edges []AHEdge, ends func(*AHEdge) (row, other int)) adjacency {
	g := adjacency{start: make([]int32, n+1), list: make([]int32, len(edges))}
	for i := range edges {
		row, _ := ends(&edges[i])
		g.start[row+1]++
	}
	for q := 0; q < n; q++ {
		g.start[q+1] += g.start[q]
	}
	fill := append([]int32(nil), g.start[:n]...)
	for i := range edges {
		e := &edges[i]
		row, other := ends(e)
		x := int32(other) << 1
		if e.Gated {
			x |= 1
		}
		g.list[fill[row]] = x
		fill[row]++
	}
	return g
}

// row returns state q's packed neighbours.
func (g *adjacency) row(q int) []int32 { return g.list[g.start[q]:g.start[q+1]] }

// Transform converts an NBVA into an equivalent AH-NBVA (§4). For every
// state q with distinct incoming actions ϑ1…ϑk it creates copies q1…qk; an
// NBVA edge p →(σ/ϑi) q becomes an AH edge p → qi, and every outgoing edge
// q →(σ/ϑ) q' is replicated from each copy qi.
//
// Initial entry counts as an incoming action (set1 for BV states), so an
// initial state that is also entered with a different action is split too.
// Transform verifies the read-homogeneity invariant the construction
// guarantees: all gated outgoing edges of a state use the same read.
func Transform(src *NBVA) (*AHNBVA, error) {
	type copyKey struct {
		orig   int
		action Action
	}
	// Determine the set of incoming actions per state.
	actionsOf := make([][]Action, src.Size())
	addAction := func(q int, act Action) {
		for _, a := range actionsOf[q] {
			if a == act {
				return
			}
		}
		actionsOf[q] = append(actionsOf[q], act)
	}
	for _, e := range src.Edges {
		addAction(e.To, e.Action)
	}
	for _, q := range src.Initial {
		if src.States[q].Width > 0 {
			addAction(q, ActSet1)
		} else {
			addAction(q, ActNone)
		}
	}
	// Unreachable states (no incoming edges, not initial) keep a single
	// copy with the neutral action so indices stay well formed.
	for q := range src.States {
		if len(actionsOf[q]) == 0 {
			if src.States[q].Width > 0 {
				addAction(q, ActCopy)
			} else {
				addAction(q, ActNone)
			}
		}
	}

	// Determine each state's read instruction and check homogeneity.
	readOf := make([]Read, src.Size())
	for q := range readOf {
		readOf[q] = NoRead()
	}
	setRead := func(q int, r Read) error {
		if r.None {
			return nil
		}
		if !readOf[q].None && readOf[q] != r {
			return fmt.Errorf("nbva: state %d has conflicting reads %v and %v", q, readOf[q], r)
		}
		readOf[q] = r
		return nil
	}
	for _, e := range src.Edges {
		if err := setRead(e.From, e.Read); err != nil {
			return nil, err
		}
	}
	for _, f := range src.Finals {
		if err := setRead(f.State, f.Read); err != nil {
			return nil, err
		}
	}

	dst := &AHNBVA{AcceptsEmpty: src.AcceptsEmpty, Anchored: src.Anchored}
	ids := make(map[copyKey]int)
	for q, st := range src.States {
		for _, act := range actionsOf[q] {
			ids[copyKey{q, act}] = len(dst.States)
			dst.States = append(dst.States, AHState{
				Class:  st.Class,
				Width:  st.Width,
				Action: act,
				Read:   readOf[q],
			})
			dst.Origin = append(dst.Origin, q)
		}
	}
	// Edges: p's copies all forward to the copy of q matching the action.
	for _, e := range src.Edges {
		to := ids[copyKey{e.To, e.Action}]
		for _, act := range actionsOf[e.From] {
			from := ids[copyKey{e.From, act}]
			dst.Edges = append(dst.Edges, AHEdge{From: from, To: to, Gated: !e.Read.None})
		}
	}
	for _, q := range src.Initial {
		act := ActNone
		if src.States[q].Width > 0 {
			act = ActSet1
		}
		dst.Initial = append(dst.Initial, ids[copyKey{q, act}])
	}
	for _, f := range src.Finals {
		for _, act := range actionsOf[f.State] {
			dst.Finals = append(dst.Finals, ids[copyKey{f.State, act}])
		}
	}
	dst.finalize()
	return dst, nil
}

// MustTransform is Transform for known-good inputs; it panics on error.
func MustTransform(src *NBVA) *AHNBVA {
	a, err := Transform(src)
	if err != nil {
		panic(err)
	}
	return a
}

// AHRunner executes an AH-NBVA with the BVAP phase structure of §3:
// state matching, then bit-vector processing (route, aggregate with OR,
// apply the destination state's action), then state transition.
//
// The runner is sparse: a step costs time proportional to the active
// frontier (active states, their out-edges, and the candidate states those
// edges reach), not to the automaton size — the same property the
// event-driven hardware has.
type AHRunner struct {
	ah *AHNBVA
	// vecs holds the current configuration's vectors (valid only for
	// active BV states); nextVecs is the build buffer for the next
	// configuration. Double buffering matters: aggregation must read the
	// *old* vector of a source even when that source is itself being
	// rewritten as a destination this step (e.g. mutually-fed shift
	// loops).
	vecs     []BitVector
	nextVecs []BitVector

	// activeStamp[q] == epoch marks q active in the current
	// configuration; candStamp marks candidacy during a step.
	activeStamp []uint64
	candStamp   []uint64
	epoch       uint64
	activeList  []int
	candList    []int
	scratch     []int

	readOK      []bool
	isInitial   []bool
	isFinal     []bool
	initialList []int
	started     bool

	lastBVActive  int
	lastNFAActive int
	lastStorage   int // active BV states with storage (copy/shift)
	lastSet1      int // active power-gated set1 states
	lastReads     int // read actions executed (for energy accounting)
	lastSwaps     int // swap-phase vector deliveries (for energy accounting)
}

// NewAHRunner returns an AHRunner in the start-of-stream configuration.
func NewAHRunner(a *AHNBVA) *AHRunner {
	r := &AHRunner{
		ah:          a,
		vecs:        make([]BitVector, a.Size()),
		nextVecs:    make([]BitVector, a.Size()),
		activeStamp: make([]uint64, a.Size()),
		candStamp:   make([]uint64, a.Size()),
		epoch:       1,
		readOK:      make([]bool, a.Size()),
		isInitial:   make([]bool, a.Size()),
		isFinal:     make([]bool, a.Size()),
	}
	for _, q := range a.Initial {
		if !r.isInitial[q] {
			r.isInitial[q] = true
			r.initialList = append(r.initialList, q)
		}
	}
	for _, q := range a.Finals {
		r.isFinal[q] = true
	}
	for q, st := range a.States {
		if st.Width > 0 {
			r.vecs[q] = NewBitVector(st.Width)
			r.nextVecs[q] = NewBitVector(st.Width)
		}
	}
	return r
}

// Reset returns the runner to the start-of-stream configuration.
func (r *AHRunner) Reset() {
	r.epoch += 2
	r.started = false
	r.activeList = r.activeList[:0]
	r.lastBVActive, r.lastNFAActive = 0, 0
	r.lastStorage, r.lastSet1 = 0, 0
	r.lastReads, r.lastSwaps = 0, 0
}

// Active reports whether state q is active in the current configuration.
func (r *AHRunner) Active(q int) bool { return r.activeStamp[q] == r.epoch }

// Vector returns state q's current bit vector. Its contents are only
// meaningful while Active(q); callers must not mutate it.
func (r *AHRunner) Vector(q int) BitVector { return r.vecs[q] }

// ActiveBVStates returns the number of active BV states after the latest
// step.
func (r *AHRunner) ActiveBVStates() int { return r.lastBVActive }

// ActiveStates returns the number of active states after the latest step.
func (r *AHRunner) ActiveStates() int { return r.lastNFAActive }

// AppendActive appends the ids of the states active after the latest step
// to dst and returns the extended slice. It allocates only when dst's
// capacity is insufficient, so profilers can reuse one scratch buffer
// across steps; the order is the runner's deterministic commit order.
func (r *AHRunner) AppendActive(dst []int) []int {
	return append(dst, r.activeList...)
}

// ReadOps and SwapOps return the counts of read actions and vector
// deliveries performed on the latest step; the cycle simulator converts
// these into BVM energy and latency.
func (r *AHRunner) ReadOps() int { return r.lastReads }
func (r *AHRunner) SwapOps() int { return r.lastSwaps }

// ActiveStorageBVs and ActiveSet1BVs split the active BV states into those
// with SRAM storage (copy/shift) and power-gated set1 constant generators —
// the split the BVM energy model charges differently (§5).
func (r *AHRunner) ActiveStorageBVs() int { return r.lastStorage }
func (r *AHRunner) ActiveSet1BVs() int    { return r.lastSet1 }

// Step consumes one input symbol and reports whether a match ends at it.
func (r *AHRunner) Step(b byte) bool {
	a := r.ah
	cur := r.epoch
	next := cur + 1
	r.lastReads, r.lastSwaps = 0, 0

	// Read step: evaluate each active source's read once (performed at
	// the source BV, §5).
	for _, q := range r.activeList {
		st := &a.States[q]
		if st.Read.None || st.Width == 0 {
			r.readOK[q] = true
			continue
		}
		r.readOK[q] = st.Read.Eval(r.vecs[q])
		r.lastReads++
	}

	// Candidate discovery: initial states plus targets of enabled edges
	// out of active states. A candidate BV state's scratch vector is
	// cleared on first sight.
	r.candList = r.candList[:0]
	addCand := func(q int) {
		if r.candStamp[q] == next {
			return
		}
		r.candStamp[q] = next
		r.candList = append(r.candList, q)
	}
	armInitial := !a.Anchored || !r.started
	r.started = true
	if armInitial {
		for _, q := range r.initialList {
			addCand(q)
		}
	}
	for _, p := range r.activeList {
		for _, x := range a.out.row(p) {
			if x&1 != 0 && !r.readOK[p] {
				continue
			}
			addCand(int(x >> 1))
		}
	}

	// Matching + bit-vector processing over the candidates.
	match := false
	r.scratch = r.scratch[:0]
	for _, q := range r.candList {
		st := &a.States[q]
		if !st.Class.Contains(b) {
			continue
		}
		needVec := st.Width > 0 && st.Action != ActSet1
		if needVec {
			r.nextVecs[q].Clear()
		}
		fired := false
		for _, x := range a.in.row(q) {
			from := int(x >> 1)
			if r.activeStamp[from] != cur {
				continue
			}
			if x&1 != 0 && !r.readOK[from] {
				continue
			}
			fired = true
			// Aggregation: OR the raw source vector into the
			// destination's input. Set1 ignores the input, and
			// plain states carry none.
			if needVec && a.States[from].Width > 0 {
				r.nextVecs[q].OrFrom(r.vecs[from])
				r.lastSwaps++
			}
		}
		if !fired && !(armInitial && r.isInitial[q]) {
			continue
		}
		// Action execution after aggregation (§3).
		alive := true
		if st.Width > 0 {
			switch st.Action {
			case ActSet1:
				r.nextVecs[q].SetOnly1()
				r.lastSwaps++
			case ActShift:
				r.nextVecs[q].ShiftFrom(r.nextVecs[q])
				alive = !r.nextVecs[q].IsZero()
			default:
				alive = !r.nextVecs[q].IsZero()
			}
		}
		if !alive {
			continue // a BV state with a zero vector is dead
		}
		r.scratch = append(r.scratch, q)
	}

	// Commit the new configuration: the build buffer becomes current.
	r.vecs, r.nextVecs = r.nextVecs, r.vecs
	r.activeList, r.scratch = r.scratch, r.activeList
	r.lastBVActive, r.lastNFAActive = 0, 0
	r.lastStorage, r.lastSet1 = 0, 0
	for _, q := range r.activeList {
		r.activeStamp[q] = next
		st := &a.States[q]
		r.lastNFAActive++
		if st.Width > 0 {
			r.lastBVActive++
			if st.Action == ActSet1 {
				r.lastSet1++
			} else {
				r.lastStorage++
			}
		}
		if r.isFinal[q] {
			if st.Read.None || st.Width == 0 || st.Read.Eval(r.vecs[q]) {
				match = true
			}
		}
	}
	r.epoch = next
	return match
}

// MatchEnds runs the AH-NBVA over input and returns every index where a
// match ends.
func (a *AHNBVA) MatchEnds(input []byte) []int {
	r := NewAHRunner(a)
	var ends []int
	for i, b := range input {
		if r.Step(b) {
			ends = append(ends, i)
		}
	}
	return ends
}
