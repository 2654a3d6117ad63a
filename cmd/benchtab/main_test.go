package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"sllt/internal/bench"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
)

// smokeDigest is the SHA-256 of the smoke flow's post-CTS DEF at seed 1.
// A change that moves it on purpose updates this constant and says why in
// CHANGES.md; any other change that moves it is a regression.
const smokeDigest = "18f674c8190a392a9aefe4b0fc4f924df7b76e20cd370f9d7b950c94dea2ef8d"

// TestSmokeDigest pins the smoke flow's DEF, serial and on eight workers,
// to the known digest, not just to each other.
func TestSmokeDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		_, def, err := smokeFlow(1, workers, nil)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def))); got != smokeDigest {
			t.Errorf("workers %d: smoke DEF digest %s, want %s", workers, got, smokeDigest)
		}
	}
}

// flowDigests are the SHA-256 digests of the post-CTS DEF of every Table-6
// row: the six designs generated at seed 1 and run under each flow of
// bench.FlowOptions. Level 0 of s38584, s38417, s35932 and salsa20 runs
// the min-cost-flow assignment, also at the OR. rows' fanout of 20 except
// on salsa20; salsa20 under Ours and Com. is the largest such level
// (n·k = 178,125). ethernet and vga_lcd are the designs whose level 0 runs
// greedy assignment and the annealer's grid path (n·k > 200 000,
// n ≥ 2048); the Com. rows run 30,000 annealing moves. The same update
// rule as smokeDigest applies.
var flowDigests = []struct{ design, flow, digest string }{
	{"s38584", "Ours", "b7e15dfa5e40fc348a52450058e74a4cc6627846dd93f9c181d91f1a9dbb6449"},
	{"s38584", "Com.", "ba171ff9cafa5e2e05a5bee4da7f3c966dd50177e9ddfef415d3434ecfa8ec76"},
	{"s38584", "OR.", "7e164b68722c84985403396c32bc7c4c8645bd9c99bee323548f00c460bb3255"},
	{"s38417", "Ours", "1e2c463ca11b5583733d5e0acadca47b43b92d7a77cd22432fe749fa2e8b1a17"},
	{"s38417", "Com.", "d4e3c4a19927f41712a835dc53c77c4df552705759c8f0a6a8b93e8bb35ab7f9"},
	{"s38417", "OR.", "f89f0683b850d77be8dba37fd3811fecb46e52ad1679ebabd5aafc8e6dff6288"},
	{"s35932", "Ours", "91d97d0861547302f713e9b7569e16b4355f65dd5ecc5c89b39240b6a97d4625"},
	{"s35932", "Com.", "a9a8817383f4e57432aeb9bf4e5c8e2fc29b6c62d3a5eb42c72372cc484135cf"},
	{"s35932", "OR.", "e47f31e18d3b7c95e0468c4d7ffb0dbe81bd73be0574393e1cc3eac3adbcab60"},
	{"salsa20", "Ours", "f89ca4ef5fa0593e87bdd6b49959b10367d3476a74da63e14e656efe158e9559"},
	{"salsa20", "Com.", "53ce026686ccaff128e598da0fd466d19970a835bc171d3aae5acd4dc271e886"},
	{"salsa20", "OR.", "f7be67c951609a3becb2d4eb26ac5d50ec9278be94f842b7e7ac21b10bdd7c91"},
	{"ethernet", "Ours", "31a2e9e0fd4f97a7d86e1e58a6ea72a4bf2cdab9d6356af0be64c7234c8e8ce5"},
	{"ethernet", "Com.", "46525360a5d616b6c00f34b0e4ff1aa047da87fb1dbfc1d1c49bae84cc360bb2"},
	{"ethernet", "OR.", "9da7c8446c3ac8b1e1671426dc58b9690a314b26be9a7edcc543d9d53a4162b8"},
	{"vga_lcd", "Ours", "f68f3bff4d896c648af8a435201a7e52f9d3c7459b0dd82bacbe3eb61a9aa30a"},
	{"vga_lcd", "Com.", "dd55c3e54ebc156b22a14b201e7232e061d50393e5b3f1e2b29d6aee27cb5700"},
	{"vga_lcd", "OR.", "beb2ed254ca31b68f85f3d077dff639faa880d5dc1e79ebd4255ab4f5b3ec3a6"},
}

// TestFlowDigests pins the full flow's DEF for the rows of flowDigests.
func TestFlowDigests(t *testing.T) {
	flows := bench.FlowOptions(runtime.GOMAXPROCS(0))
	designs := map[string]*design.Design{}
	for _, c := range flowDigests {
		d, ok := designs[c.design]
		if !ok {
			spec, err := designgen.FindSpec(c.design)
			if err != nil {
				t.Fatal(err)
			}
			d = designgen.Generate(spec, 1)
			designs[c.design] = d
		}
		res, err := cts.Run(d, flows[c.flow])
		if err != nil {
			t.Fatalf("%s %s: %v", c.design, c.flow, err)
		}
		def := cts.ExportDEF(d, res).WriteDEF()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(def))); got != c.digest {
			t.Errorf("%s %s: DEF digest %s, want %s", c.design, c.flow, got, c.digest)
		}
	}
}
