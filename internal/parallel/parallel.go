// Package parallel is the deterministic fan-out primitive behind every
// concurrent loop in the CTS flow. The paper's hierarchy (§3, Fig. 3)
// synthesizes each level's clusters independently, which makes the hot
// loops embarrassingly parallel — but the repository's contract is byte
// reproducibility for a fixed seed, so algorithm packages do not use raw
// goroutines-plus-channels, whose completion order leaks into append
// order, float accumulation order, or error selection. A leak of that kind
// changes a run's output from one schedule to the next, which the
// WorkersInvariant tests, the pinned flow digests and the race detector
// catch. ForEach is the sanctioned shape: an indexed fan-out whose tasks
// may only write state partitioned by their own index, so the observable
// result is identical for any worker count and any schedule.
//
// Determinism rules for code built on this package:
//
//   - a task for index i writes only slots[i]-style state; never append,
//     never shared accumulators;
//   - reductions over task results happen after ForEach returns, in index
//     order, so float rounding matches the serial loop bit-for-bit;
//   - any randomness inside a task derives its seed from the task index
//     (seed + f(i)), never from a shared stream.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from a task, carrying the task index and
// the goroutine stack at the point of the panic. ForEach converts panics to
// errors instead of crashing the process so a failed cluster build surfaces
// like any other per-net failure.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Clamp normalizes a Workers option: values below 1 mean "serial" and map
// to 1, values above GOMAXPROCS are capped to it (more workers than
// schedulable threads only adds contention).
func Clamp(workers int) int {
	if workers < 1 {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		return p
	}
	return workers
}

// ForEach runs fn(0), fn(1), …, fn(n-1) on up to workers goroutines and
// returns the error of the lowest-index failing task, or nil.
//
// Tasks are dispatched in index order but may complete in any order; fn
// must therefore confine its writes to state partitioned by its index (see
// the package comment). With workers <= 1 (or n <= 1) the calls happen
// serially on the caller's goroutine, stopping at the first error — the
// reference semantics the parallel path reproduces: because dispatch is
// monotone in the index, every task below a recorded failure has also run,
// so the lowest-index recorded error is exactly the error the serial loop
// would have returned. After an error is recorded, not-yet-dispatched
// tasks are skipped; callers must treat all per-index results as invalid
// when ForEach returns non-nil.
//
// A panicking task does not crash the run: the panic is captured as a
// *PanicError and participates in lowest-index-wins like any other error.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Clamp(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := runTask(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := runTask(i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask invokes fn(i) with panic capture.
func runTask(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
