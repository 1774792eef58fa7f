package main

import (
	"fmt"
	"runtime"
	"time"
)

// meter is one phase's unit of work. The measuring loop shares --seconds
// among the meters, always running next the one that has had the least
// measuring time so far, until the time is spent and each meter has its
// minimum repetitions. On a shared machine speed drifts over seconds, so a
// phase measured in one stretch reads fast or slow with its stretch;
// interleaved, every metric samples the whole run alike, and each rests on
// about the same share of it.
type meter struct {
	phase   string
	minReps int
	// share weighs the meter's claim on the run against the others'; 0
	// counts as 1.
	share float64
	// unit runs one repetition. Repetition 0 is the untimed warm-up, whose
	// output is checked in full.
	unit func(rep int64) error
	// reps are the timed repetitions, in seconds.
	reps []float64
	// spent is the measuring time the meter has had, forced collections
	// included.
	spent time.Duration
}

// measure warms every meter up, then runs the repetitions: each turn goes
// to the meter with the least time spent (among those still short of their
// minimum once --seconds is over), so a short unit repeats more often than
// a long one and every meter's median rests on about an equal share of the
// run.
func (b *bench) measure(meters []*meter) error {
	for _, m := range meters {
		if err := b.inPhase(m.phase, func() error { return m.unit(0) }); err != nil {
			return err
		}
	}
	start := time.Now()
	for {
		over := time.Since(start).Seconds() >= b.seconds
		var m *meter
		for _, c := range meters {
			if over && len(c.reps) >= c.minReps {
				continue
			}
			if m == nil || c.weighted() < m.weighted() {
				m = c
			}
		}
		if m == nil {
			return nil
		}
		rep := int64(len(m.reps) + 1)
		var d time.Duration
		turn := time.Now()
		err := b.inPhase(m.phase, func() error {
			t0 := time.Now()
			err := m.unit(rep)
			d = time.Since(t0)
			return err
		})
		if err != nil {
			return err
		}
		m.spent += time.Since(turn)
		m.reps = append(m.reps, d.Seconds())
	}
}

// weighted is the meter's spent time divided by its share.
func (m *meter) weighted() float64 {
	if m.share > 0 {
		return m.spent.Seconds() / m.share
	}
	return m.spent.Seconds()
}

// gcWork is the collector's work attributed to one phase.
type gcWork struct {
	cycles  uint32
	pauseNS uint64
}

// inPhase runs f inside a span of the named phase, after a forced
// collection (not counted), and adds the collections that happen during f
// to the phase's account.
func (b *bench) inPhase(name string, f func() error) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.phase = b.tr.begin("phase."+name, 0, 0)
	err := f()
	b.tr.end(b.phase)
	runtime.ReadMemStats(&after)
	g := b.gc[name]
	g.cycles += after.NumGC - before.NumGC
	g.pauseNS += after.PauseTotalNs - before.PauseTotalNs
	b.gc[name] = g
	if err != nil {
		return fmt.Errorf("%s phase: %w", name, err)
	}
	return nil
}
