package bvap

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleGoroutines waits up to 2s for the goroutine count to fall back to
// the baseline, then reports the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// Cancelling service scans mid-flight under load leaves no goroutines
// behind and returns every pooled stream: admission slots are released on
// the cancellation path, not just on success.
func TestServiceCancelMidFlightHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, err := NewService([]string{"ab{2}c", "ab{2,5}c", "c{3}"}, &ServiceConfig{
		MaxConcurrent: 2,
		MaxQueue:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("xxabbcyy"), 4<<10)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%2 == 0 {
					cancel() // already dead: shed or fail fast
				} else {
					go func() {
						time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
						cancel()
					}()
				}
				_, err := svc.Scan(ctx, input)
				if err != nil && !errors.Is(err, context.Canceled) &&
					!errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected scan error: %v", err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()

	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := svc.Engine().StreamsOut(); n != 0 {
		t.Errorf("%d pooled streams still checked out after drain", n)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew %d → %d across canceled service scans", before, after)
	}
}

// Cancelling a batch mid-flight returns all pooled streams even when some
// shards also panic while others are still scanning; the one-shot scans
// return theirs too.
func TestScanBatchCancelAndPanicHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	e := MustCompile([]string{"ab{2}c"})
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte("zabbcz"), 2<<10)
	}

	poison := inputs[5]
	shardCorruptHook = func(in []byte, _ int, ms []Match) []Match {
		if len(in) > 0 && &in[0] == &poison[0] {
			panic("hygiene: poisoned shard")
		}
		return ms
	}
	defer func() { shardCorruptHook = nil }()

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
			cancel()
		}()
		res, err := e.ScanBatch(ctx, inputs, &BatchOptions{Workers: 4})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("ScanBatch: %v", err)
		}
		for _, r := range res {
			if r.Err != nil {
				var pe *PanicError
				if !errors.Is(r.Err, context.Canceled) && !errors.As(r.Err, &pe) {
					t.Errorf("shard error neither cancel nor panic: %v", r.Err)
				}
			}
		}
		cancel()
		if n := e.StreamsOut(); n != 0 {
			t.Fatalf("iteration %d: %d pooled streams checked out after batch", i, n)
		}
	}

	// The one-shot scans borrow from the same pool and return on every
	// path, a canceled context included.
	e.FindAll(inputs[0])
	e.Count(inputs[0])
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.FindAllContext(dead, inputs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindAllContext on a canceled context: %v", err)
	}
	if _, err := e.FindAllContext(context.Background(), inputs[0]); err != nil {
		t.Fatalf("FindAllContext: %v", err)
	}
	if n := e.StreamsOut(); n != 0 {
		t.Fatalf("%d pooled streams checked out after FindAll/Count/FindAllContext", n)
	}

	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew %d → %d across canceled batches", before, after)
	}
}

// An abandoned stream session (never closed, never resumed) holds no
// goroutines, and draining the service afterwards still completes.
func TestSessionAbandonHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	svc, err := NewService([]string{"ab{2}c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sess, err := svc.NewSession(&SessionConfig{CheckpointInterval: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Feed(context.Background(), bytes.Repeat([]byte("abbc"), 300)); err != nil {
			t.Fatal(err)
		}
		// Dropped on the floor: sessions own plain heap state, so
		// abandonment must cost nothing.
		_ = sess
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain after abandoned sessions: %v", err)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew %d → %d across abandoned sessions", before, after)
	}
}
