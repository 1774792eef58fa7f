package bvap

// BVAP-S checkpoint/resume. A long-lived stream (the §6 direct-sensor
// scenario) cannot afford to rescan from byte zero after an interruption, so
// the execution state that determines future matches — the active frontier,
// the BV contents of every active counting state, and the symbol cursor —
// can be snapshotted and restored:
//
//   - Stream.Checkpoint / Stream.Restore capture the software engine's
//     state. A checkpoint is tied to its Engine (not to one Stream), so it
//     can restore onto any stream of the same compiled set — including a
//     freshly built one, which is how a restarted process resumes;
//   - Simulator.Checkpoint / Simulator.Restore do the same for the
//     cycle-accurate model, reusing the rewind surface the fault-injection
//     harness already exercises. Monotone statistics (energy, cycles) are
//     never rewound: rolled-back work stays charged, which is the measured
//     cost of recovery.
//
// The Service layer builds exactly-once delivery on top: StreamSession (see
// service.go) commits match reports only at checkpoint boundaries, so a
// resume after a mid-interval failure replays the uncommitted tail and
// regenerates exactly the reports that were never delivered.

import (
	"fmt"

	"bvap/internal/nbva"
)

// StreamCheckpoint is an immutable snapshot of a Stream's matching state:
// per-machine active frontiers and BV vectors plus the cumulative symbol
// count. It stays valid across later Steps and may be restored repeatedly,
// onto the original stream or any other stream of the same Engine.
type StreamCheckpoint struct {
	engine  *Engine
	snaps   []*nbva.RunnerSnapshot
	symbols int64
}

// Symbols returns the cumulative symbols the stream had consumed (since its
// last Reset) when the checkpoint was taken — the report cursor a resuming
// caller feeds from.
func (ck *StreamCheckpoint) Symbols() int64 { return ck.symbols }

// Checkpoint captures the stream's current matching state.
func (s *Stream) Checkpoint() *StreamCheckpoint {
	return &StreamCheckpoint{engine: s.engine, snaps: s.core.Snapshots(), symbols: s.symbolsRun}
}

// Restore rewinds the stream to a checkpoint taken on any stream of the
// same Engine. The stream's budget limit is configuration and survives;
// consumed symbols rewind to the checkpoint's cursor so budget accounting
// resumes consistently. Restoring a checkpoint from a different Engine is a
// programmer error and is rejected.
func (s *Stream) Restore(ck *StreamCheckpoint) error {
	if ck == nil || ck.engine != s.engine {
		return fmt.Errorf("bvap: checkpoint belongs to a different engine")
	}
	s.core.Restore(ck.snaps)
	s.symbolsRun = ck.symbols
	return nil
}

// SimCheckpoint is an immutable snapshot of a BVAP/BVAP-S simulator's
// functional state (runner frontiers, BV contents, stream position, match
// cursors, I/O occupancies). It is tied to the simulator it was taken on.
type SimCheckpoint struct {
	sim     *Simulator
	inner   any // faults.Checkpoint; kept opaque
	symbols int64
}

// Checkpoint captures the simulator's functional state. Only the BVAP and
// BVAP-S models support checkpointing; the unfolding baselines do not model
// a resumable stream and return an error.
func (s *Simulator) Checkpoint() (*SimCheckpoint, error) {
	if s.bvapSys == nil {
		return nil, fmt.Errorf("bvap: %v simulators do not support checkpointing (BVAP and BVAP-S only)", s.arch)
	}
	return &SimCheckpoint{sim: s, inner: s.bvapSys.Checkpoint(), symbols: s.symbolsRun}, nil
}

// Restore rewinds the simulator's functional state to a checkpoint taken on
// it. Accumulated statistics (energy, cycles, symbols) are not rewound —
// discarded work stays on the meter. Restoring another simulator's
// checkpoint is rejected.
func (s *Simulator) Restore(ck *SimCheckpoint) error {
	if ck == nil || ck.sim != s {
		return fmt.Errorf("bvap: checkpoint belongs to a different simulator")
	}
	s.bvapSys.Restore(ck.inner)
	s.symbolsRun = ck.symbols
	return nil
}
