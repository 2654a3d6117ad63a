// Package dme is a roster fixture shaped like an algorithm package: its
// basename puts it in scope of every package-scoped rule, and each function
// below violates exactly one registered analyzer. ignored.go repeats the
// violations under justified //slltlint:ignore directives, gen.go behind a
// generated marker; the registry test asserts findings come from this file
// only.
package dme

import (
	"context"
	"math/rand"
	"time"
)

// RangeMap trips maporder: a float fold over randomized iteration order.
func RangeMap(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

// Stamp trips wallclock.
func Stamp() time.Time {
	return time.Now()
}

// EqualCoords trips floatcmp.
func EqualCoords(a, b float64) bool {
	return a == b
}

// Draw trips seededrand.
func Draw() int {
	return rand.Intn(10)
}

func lookup(ctx context.Context, key string) string {
	_ = ctx
	return key
}

// Detached trips ctxguard: a context-threaded function that reaches for
// context.Background anyway.
func Detached(ctx context.Context, key string) string {
	return lookup(context.Background(), key)
}

// Fan trips sharedstate: a goroutine closure writing captured state.
func Fan(xs []float64) float64 {
	var total float64
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			total += x
		}
		close(done)
	}()
	<-done
	return total
}
