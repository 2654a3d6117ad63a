package cts

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/tree"
)

// goldenSinks is the fixed design the golden and sensitivity tests key.
func goldenSinks() []tree.PinSink {
	return []tree.PinSink{
		{Name: "ff_a/CK", Loc: geom.Pt(10, 10), Cap: 1.5},
		{Name: "ff_b/CK", Loc: geom.Pt(30, 10), Cap: 1.5},
	}
}

// goldenKeys derives the run key from fixed inputs. The fixture pins the
// whole derivation chain — salt, tag framing, field order, fingerprints —
// so any change to key derivation fails here and forces a deliberate
// cacheSalt bump (stale entries must become unreachable, not wrong).
func goldenKeys() map[string]string {
	opts := DefaultOptions()
	opts.SAIters = 100
	return map[string]string{
		"run_key": runKey(opts, geom.Pt(20, 20), goldenSinks()).String(),
	}
}

// TestCacheKeyGolden compares every derived key against the committed
// fixture (testdata/cachekeys_golden.json; regenerate with -update only
// alongside a cacheSalt bump).
func TestCacheKeyGolden(t *testing.T) {
	got := goldenKeys()
	path := filepath.Join("testdata", "cachekeys_golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %s, fixture has %s — key derivation changed; bump cacheSalt and regenerate with -update",
				name, got[name], w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("fixture missing key kind %s (regenerate with -update)", name)
		}
	}
}

// TestCacheKeySensitivity checks that every keyed input actually reaches the
// run key: perturbing any single knob, constraint, technology parameter,
// sink field, the sink order or the clock root must change it, while
// Workers must not.
func TestCacheKeySensitivity(t *testing.T) {
	base := DefaultOptions()
	base.SAIters = 100
	root := geom.Pt(20, 20)
	k0 := runKey(base, root, goldenSinks())

	perturb := map[string]func(*Options){
		"skew bound":    func(o *Options) { o.Cons.SkewBound++ },
		"max fanout":    func(o *Options) { o.Cons.MaxFanout++ },
		"max cap":       func(o *Options) { o.Cons.MaxCap++ },
		"max wl":        func(o *Options) { o.Cons.MaxWL++ },
		"est mode":      func(o *Options) { o.Est = EstExact },
		"use sa":        func(o *Options) { o.UseSA = !o.UseSA },
		"sa iters":      func(o *Options) { o.SAIters++ },
		"seed":          func(o *Options) { o.Seed++ },
		"source slew":   func(o *Options) { o.SourceSlew++ },
		"buffer margin": func(o *Options) { o.BufferMargin += 0.01 },
		"force cell":    func(o *Options) { o.StrongestCell = true },
		"restarts":      func(o *Options) { o.KMeansRestarts++ },
		"build id":      func(o *Options) { o.BuildID = "other" },
		"tech":          func(o *Options) { o.Tech.CPerUm += 0.001 },
	}
	for name, f := range perturb {
		o := base
		f(&o)
		if runKey(o, root, goldenSinks()) == k0 {
			t.Errorf("perturbing %s did not change the run key", name)
		}
	}
	o := base
	o.Workers = 8
	if runKey(o, root, goldenSinks()) != k0 {
		t.Error("perturbing workers changed the run key; it is byte-identity-neutral and must not be keyed")
	}

	design := map[string]func(s []tree.PinSink) geom.Point{
		"sink name":  func(s []tree.PinSink) geom.Point { s[0].Name = "ff_c/CK"; return root },
		"sink x":     func(s []tree.PinSink) geom.Point { s[1].Loc.X++; return root },
		"sink y":     func(s []tree.PinSink) geom.Point { s[1].Loc.Y++; return root },
		"sink cap":   func(s []tree.PinSink) geom.Point { s[0].Cap++; return root },
		"sink order": func(s []tree.PinSink) geom.Point { s[0], s[1] = s[1], s[0]; return root },
		"clock root": func(s []tree.PinSink) geom.Point { return geom.Pt(20, 21) },
	}
	for name, f := range design {
		sinks := goldenSinks()
		r := f(sinks)
		if runKey(base, r, sinks) == k0 {
			t.Errorf("perturbing %s did not change the run key", name)
		}
	}
}
