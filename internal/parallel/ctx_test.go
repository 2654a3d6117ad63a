package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sllt/internal/obs"
)

// TestForEachCtxNilCtx pins that ForEachSpan with a nil context is the
// zero-cost path: every task runs, exactly like ForEach.
func TestForEachCtxNilCtx(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		if err := ForEachSpan(nil, workers, 50, nil, "", func(i int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Errorf("workers=%d: ran %d tasks, want 50", workers, ran.Load())
		}
	}
}

// TestForEachCtxPreCancelled pins the entry check: a context cancelled
// before the call dispatches zero tasks and returns ctx.Err().
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEachSpan(ctx, workers, 50, nil, "", func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d tasks ran after pre-cancellation, want 0", workers, ran.Load())
		}
	}
}

// TestForEachCtxCutsDispatch cancels mid-run and checks that dispatch stops:
// far fewer than n tasks run, and the error is the cancellation.
func TestForEachCtxCutsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachSpan(ctx, workers, 10000, nil, "", func(i int) error {
			if ran.Add(1) == 10 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Already-claimed tasks may finish; at most one extra per worker.
		if got := ran.Load(); got > 10+int64(workers) {
			t.Errorf("workers=%d: %d tasks ran after cancellation at task 10", workers, got)
		}
	}
}

// TestForEachCtxTaskErrorWins pins error selection: a genuine task error
// below the cancellation point beats the cancellation marker.
func TestForEachCtxTaskErrorWins(t *testing.T) {
	boom := fmt.Errorf("task 0 failed")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachSpan(ctx, 4, 100, nil, "", func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task-0 error", err)
	}
}

// TestForEachCtxPanicCapture pins that ForEachSpan's ctx path keeps
// ForEach's panic-to-error conversion.
func TestForEachCtxPanicCapture(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		err := ForEachSpan(ctx, workers, 8, nil, "", func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 2 {
			t.Fatalf("workers=%d: err = %v, want PanicError at index 2", workers, err)
		}
	}
}

// TestForEachSpanCtx checks the spans: one is recorded per dispatched task,
// and a nil parent runs every task without one.
func TestForEachSpanCtx(t *testing.T) {
	rec := obs.New(obs.NewManualClock(1))
	root := rec.Begin("fanout")
	if err := ForEachSpan(context.Background(), 2, 4, root, "task", func(i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	rep := rec.Snapshot()
	n := 0
	rep.Span.Walk(func(depth int, s *obs.SpanJSON) {
		if s.Name == "task" {
			n++
		}
	})
	if n != 4 {
		t.Errorf("recorded %d task spans, want 4", n)
	}

	var ran atomic.Int64
	if err := ForEachSpan(context.Background(), 2, 4, nil, "task", func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil || ran.Load() != 4 {
		t.Errorf("nil-parent path: err=%v ran=%d, want nil/4", err, ran.Load())
	}
}
