package parallel

import (
	"context"

	"sllt/internal/obs"
)

// ForEachSpan is ForEach with cooperative cancellation and per-task
// observability spans. No new task is dispatched once ctx is cancelled; a
// nil ctx never cancels. Cancellation keeps the package's determinism
// contract the same way errors do: dispatch is monotone in the index, so
// when ForEachSpan returns non-nil, callers must treat all per-index
// results as invalid. The returned error is the lowest-index task error
// when one was recorded, otherwise ctx.Err() when the fan-out was cut short
// — mirroring the serial reference loop, which observes the context between
// consecutive tasks and returns ctx.Err() in place of the task it refused
// to start. Tasks already running when ctx fires are not interrupted (fn
// observes ctx itself if it wants mid-task cancellation); ForEachSpan
// returns only after every started task has finished, so no task goroutine
// outlives the call.
//
// Task i runs inside parent.BeginTask(i, name): the span tree records every
// task's duration, serialized index-ascending whatever the schedule (see
// obs.Span). A nil parent (observability off) adds nothing to the hot path.
func ForEachSpan(ctx context.Context, workers, n int, parent *obs.Span, name string, fn func(i int) error) error {
	task := fn
	if parent != nil {
		task = func(i int) error {
			sp := parent.BeginTask(i, name)
			defer sp.End()
			return fn(i)
		}
	}
	if ctx == nil {
		return ForEach(workers, n, task)
	}
	// The claim-side check: a cancelled context reads as an error at the
	// claimed index, which stops further dispatch exactly like a task
	// failure. ForEach's lowest-index scan then prefers a genuine task error
	// below the cancellation point; above it, nothing was dispatched, so
	// ctx.Err() is exactly what the serial loop would have returned. The
	// serial path runs the same wrapper, checking ctx before each task.
	return ForEach(workers, n, func(i int) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return task(i)
	})
}
