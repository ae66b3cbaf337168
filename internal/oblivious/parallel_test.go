package oblivious

// Tests for the fanned-out EOS paths (DESIGN.md §14): parFor's
// chunking and error discipline, and the bit-identity of the engine at
// width 4 against width 1, through Run and through RunParty. CI runs
// the cluster-level conformance gate under -race; these pin the
// engine-level invariants.
//
// The fan-out width is GOMAXPROCS, so the width-sweeping tests set it
// (and restore it) themselves — a 1-core runner still exercises width
// 4 against width 1. None of them may call t.Parallel.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

func TestParForChunking(t *testing.T) {
	called := 0
	if err := parFor(0, 4, func(_, _, _ int) error { called++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := parFor(-3, 4, func(_, _, _ int) error { called++; return nil }); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Fatalf("parFor called fn %d times on empty ranges", called)
	}

	// Every worker count must cover [0, n) exactly once, in contiguous
	// non-overlapping chunks.
	const n = 17
	for _, workers := range []int{0, 1, 2, 3, 4, n, n + 5} {
		var mu sync.Mutex
		hits := make([]int, n)
		if err := parFor(n, workers, func(_, lo, hi int) error {
			if lo < 0 || hi > n || lo >= hi {
				return fmt.Errorf("bad chunk [%d, %d)", lo, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, h)
			}
		}
	}
}

func TestParForLowestErrorWins(t *testing.T) {
	errA := errors.New("worker 1 failed")
	errB := errors.New("worker 3 failed")
	// 4 workers over 8 elements: chunks are [0,2) [2,4) [4,6) [6,8).
	err := parFor(8, 4, func(w, _, _ int) error {
		switch w {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("parFor returned %v, want the lowest-index worker's error %v", err, errA)
	}
}

// buildEncState deterministically builds an EOS state: r share vectors
// of the given values, the last one encrypted. All randomness comes
// from the build source, so two calls yield bit-identical states.
func buildEncState(t *testing.T, values []uint64, r int, mod secretshare.Modulus, pub ahe.PublicKey, build *rng.Rand) *State {
	t.Helper()
	vectors := secretshare.SplitVector(values, r, mod, build)
	enc := make([]*ahe.Ciphertext, len(values))
	for i, w := range vectors[r-1] {
		c, err := pub.Encrypt(w)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	st := &State{Plain: vectors, Enc: enc, EncHolder: r - 1}
	st.Plain[r-1] = nil
	return st
}

// TestRunParallelMatchesSerial is the in-process bit-identity
// claim of the fan-out: for a fixed seed, the engine's plaintext
// shares, holder choice, and revealed (ordered) output at width 4 are
// identical to the serial (width 1) engine's — only the ciphertext
// group elements differ, and those never reach a plaintext.
func TestRunParallelMatchesSerial(t *testing.T) {
	const (
		r    = 3
		n    = 33
		seed = 41
	)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	mod := secretshare.NewModulus(64)
	values := make([]uint64, n)
	src := rng.New(7)
	for i := range values {
		values[i] = src.Uint64()
	}
	run := func(workers int) (*State, []uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		st := buildEncState(t, values, r, mod, ahe.PublicKey(priv), rng.New(1))
		if err := Run(st, Config{Mod: mod, Source: rng.New(seed), Pub: ahe.PublicKey(priv)}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := RevealParallel(st, mod, priv, 1)
		if err != nil {
			t.Fatalf("workers=%d reveal: %v", workers, err)
		}
		return st, out
	}
	stSerial, outSerial := run(1)
	stPar, outPar := run(4)
	if stPar.EncHolder != stSerial.EncHolder {
		t.Fatalf("holders diverged: serial %d, parallel %d", stSerial.EncHolder, stPar.EncHolder)
	}
	for j := range stSerial.Plain {
		if fmt.Sprint(stPar.Plain[j]) != fmt.Sprint(stSerial.Plain[j]) {
			t.Fatalf("party %d plaintext shares diverged at width 4", j)
		}
	}
	// Ordered comparison: the permutation itself must match, not just
	// the multiset.
	if fmt.Sprint(outPar) != fmt.Sprint(outSerial) {
		t.Fatalf("revealed outputs diverged:\nserial   %v\nparallel %v", outSerial, outPar)
	}
}

// runPartiesWide is runParties at fan-out width `workers` (GOMAXPROCS,
// restored on return).
func runPartiesWide(t *testing.T, r int, vectors [][]uint64, enc []*ahe.Ciphertext, encHolder int, pub ahe.PublicKey, seed uint64, workers int) ([][]uint64, []([]*ahe.Ciphertext), []error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	return runParties(t, r, vectors, enc, encHolder, pub, seed)
}

// TestRunPartyMatchesSerial is the distributed-engine bit-identity
// claim: width 4 produces the same plaintext shares, the same final
// holder, and the same ordered reveal as width 1, for a fixed seed.
func TestRunPartyMatchesSerial(t *testing.T) {
	const (
		r    = 3
		n    = 20
		seed = 17
	)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	mod := secretshare.NewModulus(64)
	values := make([]uint64, n)
	src := rng.New(23)
	for i := range values {
		values[i] = src.Uint64()
	}
	vectors := secretshare.SplitVector(values, r, mod, src)
	encHolder := r - 1
	mkEnc := func() []*ahe.Ciphertext {
		enc := make([]*ahe.Ciphertext, n)
		for i, w := range vectors[encHolder] {
			c, err := pub.Encrypt(w)
			if err != nil {
				t.Fatal(err)
			}
			enc[i] = c
		}
		return enc
	}
	reveal := func(outPlain [][]uint64, outEnc [][]*ahe.Ciphertext) ([]uint64, int) {
		st := &State{Plain: make([][]uint64, r), EncHolder: -1}
		for j := 0; j < r; j++ {
			if outEnc[j] != nil {
				st.Enc = outEnc[j]
				st.EncHolder = j
			} else {
				st.Plain[j] = outPlain[j]
			}
		}
		out, err := RevealParallel(st, mod, priv, 1)
		if err != nil {
			t.Fatal(err)
		}
		return out, st.EncHolder
	}

	refPlain, refEnc, errs := runPartiesWide(t, r, vectors, mkEnc(), encHolder, pub, seed, 1)
	for j, err := range errs {
		if err != nil {
			t.Fatalf("reference party %d: %v", j, err)
		}
	}
	refOut, refHolder := reveal(refPlain, refEnc)

	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		outPlain, outEnc, errs := runPartiesWide(t, r, vectors, mkEnc(), encHolder, pub, seed, workers)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("%s party %d: %v", name, j, err)
			}
		}
		out, holder := reveal(outPlain, outEnc)
		if holder != refHolder {
			t.Fatalf("%s: holder %d, want %d", name, holder, refHolder)
		}
		for j := 0; j < r; j++ {
			if fmt.Sprint(outPlain[j]) != fmt.Sprint(refPlain[j]) {
				t.Fatalf("%s: party %d plaintext shares diverged", name, j)
			}
		}
		if fmt.Sprint(out) != fmt.Sprint(refOut) {
			t.Fatalf("%s: revealed output diverged:\n got %v\nwant %v", name, out, refOut)
		}
	}
}
