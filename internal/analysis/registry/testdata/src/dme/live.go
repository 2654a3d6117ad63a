// Package dme is a roster fixture shaped like an algorithm package: its
// basename puts it in scope of every package-scoped rule, and each function
// below violates exactly one registered analyzer. ignored.go repeats the
// violations under justified //slltlint:ignore directives, gen.go behind a
// generated marker; the registry test asserts findings come from this file
// only.
package dme

import (
	"context"
	"time"
)

// Stamp trips wallclock.
func Stamp() time.Time {
	return time.Now()
}

// EqualCoords trips floatcmp.
func EqualCoords(a, b float64) bool {
	return a == b
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
