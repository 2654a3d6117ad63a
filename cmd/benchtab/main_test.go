package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
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
