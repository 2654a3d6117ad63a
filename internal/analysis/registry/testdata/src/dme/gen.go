// Code generated by dmegen. DO NOT EDIT.

package dme

import (
	"context"
	"math/rand"
	"time"
)

// The violations of live.go a third time, unsuppressed but behind the
// generated-code marker: SkipFile must silence every analyzer here.

func RangeMapGen(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

func StampGen() time.Time {
	return time.Now()
}

func EqualCoordsGen(a, b float64) bool {
	return a == b
}

func DrawGen() int {
	return rand.Intn(10)
}

func DetachedGen(ctx context.Context, key string) string {
	return lookup(context.Background(), key)
}

func FanGen(xs []float64) float64 {
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
