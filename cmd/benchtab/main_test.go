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

// flowDigests are the SHA-256 digests of the post-CTS DEF of Table-4 designs
// generated at seed 1 and run under bench.FlowOptions, keyed by design and
// flow. s38584 covers all three flows at min-cost-flow assignment sizes.
// ethernet is the smallest design whose level 0 runs greedy assignment and
// the annealer's grid path (n·k > 200 000, n ≥ 2048); its Com. row runs
// 30,000 annealing moves. The same update rule as smokeDigest applies.
var flowDigests = []struct{ design, flow, digest string }{
	{"s38584", "Ours", "b7e15dfa5e40fc348a52450058e74a4cc6627846dd93f9c181d91f1a9dbb6449"},
	{"s38584", "Com.", "ba171ff9cafa5e2e05a5bee4da7f3c966dd50177e9ddfef415d3434ecfa8ec76"},
	{"s38584", "OR.", "7e164b68722c84985403396c32bc7c4c8645bd9c99bee323548f00c460bb3255"},
	{"ethernet", "Ours", "31a2e9e0fd4f97a7d86e1e58a6ea72a4bf2cdab9d6356af0be64c7234c8e8ce5"},
	{"ethernet", "Com.", "46525360a5d616b6c00f34b0e4ff1aa047da87fb1dbfc1d1c49bae84cc360bb2"},
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
