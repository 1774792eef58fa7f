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
	// adjacency); the merged scan core walks them.
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

// AHRunner executes one AH-NBVA with the BVAP phase structure of §3:
// state matching, then bit-vector processing (route, aggregate with OR,
// apply the destination state's action), then state transition. It is a
// view of a one-machine merged scan table, whose Step is the only AH step;
// the machine's state ids are the table's global ids.
//
// The runner is sparse: a step costs time proportional to the active
// frontier (active states, their out-edges, and the candidate states those
// edges reach), not to the automaton size — the same property the
// event-driven hardware has.
type AHRunner struct{ r *MergedRunner }

// NewAHRunner returns an AHRunner in the start-of-stream configuration.
func NewAHRunner(a *AHNBVA) *AHRunner {
	return &AHRunner{r: NewMerged([]*AHNBVA{a}).NewRunner()}
}

// Reset returns the runner to the start-of-stream configuration.
func (r *AHRunner) Reset() { r.r.Reset() }

// Step consumes one input symbol and reports whether a match ends at it.
func (r *AHRunner) Step(b byte) bool { return len(r.r.Step(b)) > 0 }

// Active reports whether state q is active in the current configuration.
func (r *AHRunner) Active(q int) bool { return r.r.isActive(int32(q)) }

// Vector returns state q's current bit vector. Its contents are only
// meaningful while Active(q); callers must not mutate it.
func (r *AHRunner) Vector(q int) BitVector { return r.r.vector(int32(q)) }

// ActiveBVStates returns the number of active BV states after the latest
// step.
func (r *AHRunner) ActiveBVStates() int {
	bv, _ := r.r.occupancy()
	return bv
}

// ActiveStates returns the number of active states after the latest step.
func (r *AHRunner) ActiveStates() int { return r.r.ActiveStates() }

// AppendActive appends the ids of the states active after the latest step
// to dst and returns the extended slice. It allocates only when dst's
// capacity is insufficient, so profilers can reuse one scratch buffer
// across steps; the order is the runner's deterministic commit order.
func (r *AHRunner) AppendActive(dst []int) []int {
	for _, g := range r.r.active {
		dst = append(dst, int(g))
	}
	return dst
}

// ReadOps and SwapOps return the counts of read actions and vector
// deliveries performed on the latest step; the cycle simulator converts
// these into BVM energy and latency.
func (r *AHRunner) ReadOps() int { return r.r.readOps() }
func (r *AHRunner) SwapOps() int { return r.r.swaps }

// ActiveStorageBVs and ActiveSet1BVs split the active BV states into those
// with SRAM storage (copy/shift) and power-gated set1 constant generators —
// the split the BVM energy model charges differently (§5).
func (r *AHRunner) ActiveStorageBVs() int {
	bv, set1 := r.r.occupancy()
	return bv - set1
}

func (r *AHRunner) ActiveSet1BVs() int {
	_, set1 := r.r.occupancy()
	return set1
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
