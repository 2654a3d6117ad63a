package dme

import (
	"context"
	"math/rand"
	"time"
)

// The violations of live.go again, each suppressed by a justified
// //slltlint:ignore directive, so the directive is exercised against every
// analyzer.

func RangeMapIgnored(m map[int]float64) float64 {
	var total float64
	//slltlint:ignore maporder fixture: suppression must hold for every analyzer
	for _, v := range m {
		total += v
	}
	return total
}

func StampIgnored() time.Time {
	//slltlint:ignore wallclock fixture: suppression must hold for every analyzer
	return time.Now()
}

func EqualCoordsIgnored(a, b float64) bool {
	//slltlint:ignore floatcmp fixture: suppression must hold for every analyzer
	return a == b
}

func DrawIgnored() int {
	//slltlint:ignore seededrand fixture: suppression must hold for every analyzer
	return rand.Intn(10)
}

func DetachedIgnored(ctx context.Context, key string) string {
	//slltlint:ignore ctxguard fixture: suppression must hold for every analyzer
	return lookup(context.Background(), key)
}

func FanIgnored(xs []float64) float64 {
	var total float64
	done := make(chan struct{})
	go func() {
		for _, x := range xs {
			//slltlint:ignore sharedstate fixture: suppression must hold for every analyzer
			total += x
		}
		close(done)
	}()
	<-done
	return total
}

// unit: d ps, c fF -> ps
func BadSumIgnored(d, c float64) float64 {
	//slltlint:ignore unitflow fixture: suppression must hold for every analyzer
	return d + c
}

// pure:
//slltlint:ignore stagepure fixture: suppression must hold for every analyzer
func CountIgnored(n int) int {
	counter += n
	return counter
}
