package dme

import (
	"context"
	"time"
)

// The violations of live.go again, each suppressed by a justified
// //slltlint:ignore directive, so the directive is exercised against every
// analyzer.

func StampIgnored() time.Time {
	//slltlint:ignore wallclock fixture: suppression must hold for every analyzer
	return time.Now()
}

func EqualCoordsIgnored(a, b float64) bool {
	//slltlint:ignore floatcmp fixture: suppression must hold for every analyzer
	return a == b
}

func DetachedIgnored(ctx context.Context, key string) string {
	//slltlint:ignore ctxguard fixture: suppression must hold for every analyzer
	return lookup(context.Background(), key)
}
