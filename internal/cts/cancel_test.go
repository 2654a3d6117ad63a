package cts

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"sllt/internal/designgen"
	"sllt/internal/dme"
	"sllt/internal/geom"
	"sllt/internal/tree"
)

// TestRunNilCtxUnchanged pins the default: a nil Ctx is the pre-context
// behavior, byte-identical output included.
func TestRunNilCtxUnchanged(t *testing.T) {
	d := cacheTestDesign(3)
	base := runCacheFlow(t, d, nil)
	got := runCacheFlow(t, cacheTestDesign(3), func(o *Options) { o.Ctx = context.Background() })
	if got.def != base.def || got.fp != base.fp {
		t.Error("attaching a never-cancelled context changed the synthesized output")
	}
}

// TestRunPreCancelled pins the entry boundary: a context cancelled before
// Run starts must stop before level 0 and surface ctx.Err() wrapped with
// the stage name.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.SAIters = 40
	opts.Ctx = ctx
	_, err := Run(cacheTestDesign(3), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "level 0") {
		t.Errorf("error %q does not name the refused stage (want \"level 0\")", err)
	}
}

// TestRunCancelBetweenLevels is the stage-boundary pin: cancelling during
// level 0's cluster builds must stop the flow before the next buildLevel —
// the builder never runs for a later level — and return ctx.Err() wrapped
// with the stage name. The cancelling hook lives in the TopoBuilder, which
// runs inside the level-0 cluster fan-out, so the first boundary the flow
// reaches afterwards is either a later level-0 cluster dispatch or the
// level-1 check; both carry the cancellation.
func TestRunCancelBetweenLevels(t *testing.T) {
	d := designgen.Generate(designgen.Spec{Name: "cancelgen", Insts: 2000, FFs: 400, Util: 0.6}, 17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := DefaultOptions()
	opts.SAIters = 40
	opts.Workers = 1
	opts.Ctx = ctx
	var builds atomic.Int64
	inner := opts.Build
	opts.Build = func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		if builds.Add(1) == 1 {
			cancel() // fire mid-stage, during the first cluster build
		}
		return inner(net, dopts)
	}
	opts.BuildID = "" // hooked builder: never cache it

	_, err := Run(d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "level 0") {
		t.Errorf("error %q does not name the stage the cancellation landed in", err)
	}
	// 400 sinks under fanout 32 need >= 13 level-0 clusters and at least one
	// more level; with W=1 the cancel after build 1 must stop dispatch well
	// short of that, proving no later buildLevel (or even cluster) ran.
	if n := builds.Load(); n > 2 {
		t.Errorf("builder ran %d times after cancellation during build 1", n)
	}
}

// TestRunCancelBeforeTiming pins the last boundary: cancellation that lands
// after the final level but before the timing pass surfaces as the timing
// stage's refusal. The builder hook counts down to the top net (the only
// build whose tree drives timing directly).
func TestRunCancelBeforeTiming(t *testing.T) {
	d := goldenDesign() // 4 sinks < fanout: the flow goes straight to the top net
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := DefaultOptions()
	opts.SAIters = 40
	opts.Ctx = ctx
	inner := opts.Build
	opts.Build = func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		cancel() // top-net build is the first and only build here
		return inner(net, dopts)
	}
	opts.BuildID = ""

	_, err := Run(d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "timing") {
		t.Errorf("error %q does not name the timing stage", err)
	}
}

// TestBestClusteringObservesCtx pins that the k-means restart fan-out
// observes Ctx like the cluster builds: a cancelled context dispatches no
// restart and surfaces ctx.Err().
func TestBestClusteringObservesCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.KMeansRestarts = 3
	opts.Ctx = ctx
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(10, 10)}
	if _, err := bestClustering(pts, 2, opts, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
