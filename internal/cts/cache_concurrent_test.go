package cts

import (
	"sync"
	"testing"

	"sllt/internal/cache"
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
	checkFullReplay(t, "warm follow-up run", c.Stats().Sub(prev))
}
