// Package salt is the positive wallclock fixture: its basename puts it in
// the algorithm-package scope.
package salt

import (
	"os"
	"time"
)

// Flagged: a time-budgeted refinement loop is load-dependent.
func RefineBad(budget time.Duration) int {
	deadline := time.Now().Add(budget) // want "must not observe the wall clock"
	iters := 0
	for time.Now().Before(deadline) { // want "must not observe the wall clock"
		iters++
		if iters > 1_000_000 {
			break
		}
	}
	return iters
}

// Flagged: the environment is an input no cache key covers.
func Iters() string {
	return os.Getenv("SALT_ITERS") // want "must not read the process environment"
}

// Clean: other time package uses (durations, formatting) are fine.
func Budget(n int) time.Duration {
	return time.Duration(n) * time.Millisecond
}
