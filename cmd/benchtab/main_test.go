package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sllt/internal/baseline"
	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
)

// smokeDigest is the SHA-256 of the smoke flow's post-CTS DEF at seed 1.
// A change that moves it on purpose follows the contract-change rule in
// DESIGN.md; any other change that moves it is a regression.
const smokeDigest = "ae94c8016ab9c833a346f9a4dc6e89956790820efe102f0fec6d9fd6db2bbe4b"

// smokeFlow runs the paper's flow on the oracles' design, a reduced
// s38584-class design generated at seed 1, and returns the hex SHA-256 of
// its exported DEF. A non-nil store attaches the run cache.
func smokeFlow(t *testing.T, workers int, store *cache.Cache) string {
	t.Helper()
	// The oracles must exercise real goroutine interleaving even on small CI
	// boxes, where GOMAXPROCS would otherwise clamp the fan-out.
	if workers > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(workers)
	}
	d := designgen.Generate(designgen.Spec{Name: "smoke", Insts: 1500, FFs: 300, Util: 0.60}, 1)
	opts := cts.DefaultOptions()
	opts.SAIters = 200
	opts.Workers = workers
	opts.Cache = store
	res, err := cts.Run(d, opts)
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(cts.ExportDEF(d, res).WriteDEF())))
}

// TestSmokeDigest pins the smoke flow's DEF, serial and on eight workers,
// to the known digest, not just to each other.
func TestSmokeDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		if got := smokeFlow(t, workers, nil); got != smokeDigest {
			t.Errorf("workers %d: smoke DEF digest %s, want %s", workers, got, smokeDigest)
		}
	}
}

// TestCacheSmokeDigest is the run cache's oracle: it runs the smoke flow
// twice against one on-disk store on eight workers. The second pass must be
// one hit with no miss, and both passes must hash to the uncached
// smokeDigest.
func TestCacheSmokeDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	store, err := cache.New(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		prev := store.Stats().Total()
		got := smokeFlow(t, 8, store)
		total := store.Stats().Total()
		hits, misses := total.Hits-prev.Hits, total.Misses-prev.Misses
		if got != smokeDigest {
			t.Errorf("pass %d: cached smoke DEF digest %s, want %s", pass, got, smokeDigest)
		}
		if pass == 2 && (hits != 1 || misses != 0) {
			t.Errorf("pass 2 hit %d and missed %d times, want one hit and no miss", hits, misses)
		}
	}
}

// large100k is the benchmark's 100k-sink design shape (cmd/slltbench), the
// one flowDigests design outside Table 4.
var large100k = designgen.Spec{Name: "large100k", Insts: 200_000, FFs: 100_000, Util: 0.62}

// flowDigests are the SHA-256 digests of the post-CTS DEF of every Table-6
// row and of the large100k design under Ours: the designs generated at
// seed 1 and run under the baseline.Engines entry whose Label the row
// names. Level 0 of s38584, s38417, s35932 and salsa20 runs the
// min-cost-flow assignment, also at the OR. rows' fanout of 20 except on
// salsa20; salsa20 under Ours and Com. is the largest such level (n·k =
// 178,125). ethernet and vga_lcd are the designs whose level 0 runs greedy
// assignment and the annealer's grid path (n·k > 200 000, n ≥ 2048); the
// Com. rows run 30,000 annealing moves. large100k is the largest flow
// checked. A change that moves a digest on purpose follows the
// contract-change rule in DESIGN.md.
var flowDigests = []struct{ design, flow, digest string }{
	{"s38584", "Ours", "b7e15dfa5e40fc348a52450058e74a4cc6627846dd93f9c181d91f1a9dbb6449"},
	{"s38584", "Com.", "d2c7bced4a06714803f5e1cc97512ede1d62391374d4ea6e4feb47521461d1f2"},
	{"s38584", "OR.", "8118f573a58f62a3ba245c1b7cada3da8ee49fa345609e36be1305328969a33d"},
	{"s38417", "Ours", "6dcb98964d1a901812668be08f327fae3812adde873edffb722304183a888a49"},
	{"s38417", "Com.", "4b076642735a190c10ec645632c7ffa24ab9a7cb03da2c22adac909e8ad85afd"},
	{"s38417", "OR.", "c46638ae9ae5396bbb3d4a1ba17826549565980e563070066f5a5be85352e9c9"},
	{"s35932", "Ours", "62078a2e16241c322683a41d5e7a090d5c8eb4eb5f95012ffa22b791ecaf2db5"},
	{"s35932", "Com.", "9af15efd3cb16ab745dfe66362e10f3111cffe2c2cec4f9a6b3e60ed9bc51565"},
	{"s35932", "OR.", "9657ffafdf5fbdf37c00f3d9be5aa98c0ea739a01799138563d67757286e6b64"},
	{"salsa20", "Ours", "5c05d610fca5e7803dd5aeba1b3def70c2afecaac877b80bc9ef4ad574c9aaf4"},
	{"salsa20", "Com.", "bc4034914af0ca011667f2c0e483e19293506f9c11563fb22618ca2fe6e52dc2"},
	{"salsa20", "OR.", "f7be67c951609a3becb2d4eb26ac5d50ec9278be94f842b7e7ac21b10bdd7c91"},
	{"ethernet", "Ours", "f7f8aeee0e4656b082b1873685eadcfe516f838a672ec06328e59fd9ec7c47a9"},
	{"ethernet", "Com.", "46525360a5d616b6c00f34b0e4ff1aa047da87fb1dbfc1d1c49bae84cc360bb2"},
	{"ethernet", "OR.", "9da7c8446c3ac8b1e1671426dc58b9690a314b26be9a7edcc543d9d53a4162b8"},
	{"vga_lcd", "Ours", "f68f3bff4d896c648af8a435201a7e52f9d3c7459b0dd82bacbe3eb61a9aa30a"},
	{"vga_lcd", "Com.", "dd55c3e54ebc156b22a14b201e7232e061d50393e5b3f1e2b29d6aee27cb5700"},
	{"vga_lcd", "OR.", "beb2ed254ca31b68f85f3d077dff639faa880d5dc1e79ebd4255ab4f5b3ec3a6"},
	{"large100k", "Ours", "083ed8beab75c5e0310bea3ce2f3ec93893549a00ac7c17ee4bb5798b484841a"},
}

// TestFlowDigests pins the full flow's DEF for the rows of flowDigests.
func TestFlowDigests(t *testing.T) {
	designs := map[string]*design.Design{}
	for _, c := range flowDigests {
		d, ok := designs[c.design]
		if !ok {
			spec, err := designgen.FindSpec(c.design)
			if c.design == large100k.Name {
				spec, err = large100k, nil
			}
			if err != nil {
				t.Fatal(err)
			}
			d = designgen.Generate(spec, 1)
			designs[c.design] = d
		}
		e := slices.IndexFunc(baseline.Engines, func(e baseline.Engine) bool { return e.Label == c.flow })
		opts := baseline.Engines[e].Options()
		opts.Workers = runtime.GOMAXPROCS(0)
		res, err := cts.Run(d, opts)
		if err != nil {
			t.Fatalf("%s %s: %v", c.design, c.flow, err)
		}
		def := cts.ExportDEF(d, res).WriteDEF()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def))); got != c.digest {
			t.Errorf("%s %s: DEF digest %s, want %s", c.design, c.flow, got, c.digest)
		}
	}
}

// TestPaperTables regenerates Tables 1-3 at seed 1, Tables 2 and 3 at 1000
// nets per cell, and compares them byte for byte with the committed
// table1.txt, table2.txt and table3.txt at the repository root.
func TestPaperTables(t *testing.T) {
	for _, table := range []string{"1", "2", "3"} {
		text, err := paperTable(table, 1000, 1, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatalf("table %s: %v", table, err)
		}
		file := filepath.Join("..", "..", "table"+table+".txt")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := text + "\n"; got != string(want) {
			t.Errorf("table %s differs from %s:\n%s", table, file, got)
		}
	}
}
