package cts

import (
	"sync"
	"testing"

	"sllt/internal/cache"
	"sllt/internal/dme"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// TestCacheConcurrentSharing is the service-workload property: two
// simultaneous flows over the same design sharing one Options.Cache must
// interleave safely (the race CI job runs this under -race), produce
// byte-identical DEFs, and leave an entry that a follow-up run replays with
// one hit and no miss. This is exactly what a job server does when two
// clients submit the same design at once: each computes, and a later
// repeat replays.
func TestCacheConcurrentSharing(t *testing.T) {
	base := runCacheFlow(t, cacheTestDesign(21), func(o *Options) { o.Workers = 1 })

	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		def string
		fp  string
		err error
	}
	outs := make([]out, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.SAIters = 40
			opts.Workers = 2
			opts.Cache = c
			res, err := Run(cacheTestDesign(21), opts)
			if err != nil {
				outs[i].err = err
				return
			}
			d := cacheTestDesign(21)
			outs[i] = out{def: ExportDEF(d, res).WriteDEF(), fp: tree.Fingerprint(res.Tree)}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("concurrent run %d: %v", i, o.err)
		}
		if o.def != base.def || o.fp != base.fp {
			t.Errorf("concurrent run %d differs from the uncached serial run", i)
		}
	}

	// The pair left the store warm: a third run must replay it.
	prev := c.Stats()
	warm := runCacheFlow(t, cacheTestDesign(21), func(o *Options) { o.Cache = c })
	if warm.def != base.def || warm.fp != base.fp {
		t.Error("warm follow-up run differs from the uncached serial run")
	}
	checkFullReplay(t, "warm follow-up run", prev, c.Stats())
}

// TestCacheSectionCountsOwnTraffic runs design A with a recorder on a fresh
// store and holds its first net build until a run of design B on the same
// store has finished, so all of B's store traffic falls inside A's run. A's
// cache section must count only A's own lookup and store: one miss and one
// put.
func TestCacheSectionCountsOwnTraffic(t *testing.T) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rec := obs.New(obs.NewManualClock(1))
	errA := make(chan error, 1)
	go func() {
		opts := DefaultOptions()
		opts.SAIters = 40
		opts.Cache = c
		opts.Obs = rec
		build := opts.Build
		opts.Build = func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
			once.Do(func() { close(entered); <-release })
			return build(net, dopts)
		}
		_, err := Run(cacheTestDesign(31), opts)
		errA <- err
	}()
	select {
	case <-entered:
	case err := <-errA:
		t.Fatalf("run A returned before its first net build: %v", err)
	}
	func() {
		defer close(release)
		runCacheFlow(t, cacheTestDesign(37), func(o *Options) { o.Cache = c })
	}()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	checkSection(t, "run A", rec, 0, 1, 1)
}
