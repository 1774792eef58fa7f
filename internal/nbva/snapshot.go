package nbva

// This file adds the execution-state surface the fault-injection and
// resilience layer (internal/faults, internal/hwsim) needs on the AHRunner:
// checkpoint/rollback snapshots for windowed retry, and the narrow mutation
// hooks that model SRAM soft errors — flipping a bit of an active state's
// vector, silently deactivating an active state, or spuriously activating
// an idle one. None of these touch the Step hot path.

// RunnerSnapshot is an immutable checkpoint of one machine's functional
// state: the active frontier, the active BV vectors, and the stream-start
// flag. It stays valid across later Steps and can be restored repeatedly.
type RunnerSnapshot struct {
	started bool
	active  []int
	vecs    []BitVector // parallel to active; zero-width for non-BV states
}

// Snapshot captures the runner's current configuration.
func (r *AHRunner) Snapshot() *RunnerSnapshot { return r.r.Snapshots()[0] }

// Restore rewinds the runner to a snapshot taken on it. The snapshot stays
// valid and may be restored again.
func (r *AHRunner) Restore(s *RunnerSnapshot) { r.r.Restore([]*RunnerSnapshot{s}) }

// ActiveList returns a fresh copy of the runner's active-state list in
// frontier order.
func (r *AHRunner) ActiveList() []int { return r.AppendActive(nil) }

// FlipBit inverts bit (1-based) of active BV state q's vector — a modeled
// SRAM soft error. It reports whether the flip was applied (q must be an
// active BV state and bit within its width).
func (r *AHRunner) FlipBit(q, bit int) bool { return r.r.flipBit(int32(q), bit) }

// Deactivate silently clears state q's active bit — a latch upset. The
// state's vector is left as-is (it is garbage once inactive, matching the
// hardware, where only the active bit gates participation). It reports
// whether q was active.
func (r *AHRunner) Deactivate(q int) bool { return r.r.deactivate(int32(q)) }

// ForceActive spuriously sets state q's active bit — the inverse latch
// upset. A BV state receives the deterministic post-upset vector [1,0,…,0]
// (the set1 pattern a freshly armed BV holds). It reports whether the state
// was newly activated.
func (r *AHRunner) ForceActive(q int) bool { return r.r.forceActive(int32(q)) }
