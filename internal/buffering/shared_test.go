package buffering

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sllt/internal/core"
	"sllt/internal/dme"
)

// TestInserterSharedAcrossGoroutines enforces the Inserter concurrency
// contract: cts.Run hands one *Inserter to every parallel cluster build, so
// no method may write an Inserter field. The test drives the full method
// surface (BufferTree, DecoupleSlowWires, CriticalLength) from many
// goroutines over disjoint trees — under `go test -race` any field write is
// a hard failure — and then compares the struct against a pre-run snapshot,
// which catches single-goroutine mutation even in non-race runs.
func TestInserterSharedAcrossGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	ins, tc, _ := setup()
	snapshot := *ins // Inserter is a comparable struct: pointers, floats, strings

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 4; trial++ {
				net := randomNet(rng, 20+rng.Intn(40), 400)
				tr, err := core.Build(net, core.Options{
					DME:        dme.Options{Model: dme.Elmore, SkewBound: 20, Tech: tc},
					TopoMethod: dme.GreedyDist,
					SALTEps:    0.1,
				})
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
				ins.BufferTree(tr)
				ins.DecoupleSlowWires(tr)
				ins.CriticalLength(ins.Lib.Smallest(), 40)
			}
		}(int64(100 + g))
	}
	wg.Wait()

	if *ins != snapshot {
		t.Errorf("Inserter mutated during use:\n before %+v\n after  %+v", snapshot, *ins)
	}
}
