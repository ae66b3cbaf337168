package oblivious

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

var (
	keyOnce sync.Once
	testKey *ahe.DGKPrivateKey
	keyErr  error
)

func dgk(t *testing.T) *ahe.DGKPrivateKey {
	t.Helper()
	keyOnce.Do(func() { testKey, keyErr = ahe.GenerateDGK(768, 32) })
	if keyErr != nil {
		t.Fatal(keyErr)
	}
	return testKey
}

func TestCombinations(t *testing.T) {
	got := Combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d combinations, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Combinations(4,2) = %v", got)
			}
		}
	}
	if len(Combinations(7, 4)) != 35 {
		t.Fatal("C(7,4) != 35")
	}
	if Combinations(3, 5) != nil {
		t.Fatal("t > r should be nil")
	}
}

func TestHiders(t *testing.T) {
	if Hiders(3) != 2 || Hiders(7) != 4 || Hiders(2) != 2 {
		t.Fatalf("Hiders: %d %d %d", Hiders(3), Hiders(7), Hiders(2))
	}
}

// makeSharedState shares `values` among r shufflers (plain shuffle).
func makeSharedState(values []uint64, r int, mod secretshare.Modulus, src secretshare.Source) *State {
	return &State{
		Plain:     secretshare.SplitVector(values, r, mod, src),
		EncHolder: -1,
	}
}

func sortedCopy(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestPlainShufflePreservesMultiset(t *testing.T) {
	mod := secretshare.NewModulus(32)
	src := rng.New(1)
	for _, r := range []int{2, 3, 5} {
		values := make([]uint64, 200)
		for i := range values {
			values[i] = uint64(i * i % 1009)
		}
		st := makeSharedState(values, r, mod, src)
		if err := Run(st, Config{Mod: mod, Source: src}); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		out, err := RevealParallel(st, mod, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantSorted := sortedCopy(values)
		gotSorted := sortedCopy(out)
		for i := range wantSorted {
			if gotSorted[i] != wantSorted[i] {
				t.Fatalf("r=%d: multiset changed", r)
			}
		}
	}
}

func TestPlainShuffleActuallyPermutes(t *testing.T) {
	mod := secretshare.NewModulus(32)
	src := rng.New(2)
	values := make([]uint64, 500)
	for i := range values {
		values[i] = uint64(i)
	}
	st := makeSharedState(values, 3, mod, src)
	if err := Run(st, Config{Mod: mod, Source: src}); err != nil {
		t.Fatal(err)
	}
	out, _ := RevealParallel(st, mod, nil, 1)
	same := 0
	for i := range out {
		if out[i] == values[i] {
			same++
		}
	}
	// A uniform permutation of 500 elements has ~1 fixed point.
	if same > 25 {
		t.Fatalf("%d/500 elements unmoved — not a real shuffle", same)
	}
}

func TestEOSPreservesMultisetAndHidesHolder(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	src := rng.New(3)
	const r, n = 3, 40
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(1000 + i)
	}
	// User-side setup per Algorithm 1: split into r shares, encrypt
	// the last share vector.
	shares := secretshare.SplitVector(values, r, mod, src)
	enc := make([]*ahe.Ciphertext, n)
	for i, s := range shares[r-1] {
		c, err := key.Encrypt(s)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	shares[r-1] = nil
	st := &State{Plain: shares, Enc: enc, EncHolder: r - 1}

	if err := Run(st, Config{Mod: mod, Source: src, Pub: key.DGKPublicKey}); err != nil {
		t.Fatal(err)
	}
	if st.EncHolder < 0 || st.EncHolder >= r {
		t.Fatalf("EncHolder = %d after EOS", st.EncHolder)
	}
	out, err := RevealParallel(st, mod, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSorted := sortedCopy(values)
	gotSorted := sortedCopy(out)
	for i := range wantSorted {
		if gotSorted[i] != wantSorted[i] {
			t.Fatalf("EOS changed the multiset: %v vs %v", gotSorted[:5], wantSorted[:5])
		}
	}
	// Even all shufflers colluding can only reconstruct the plaintext
	// parts; combined they differ from the real values (the encrypted
	// share is missing).
	colluded := make([]uint64, n)
	for j, p := range st.Plain {
		if j == st.EncHolder {
			continue
		}
		for i := range colluded {
			colluded[i] = mod.Add(colluded[i], p[i])
		}
	}
	match := 0
	valueSet := map[uint64]bool{}
	for _, v := range values {
		valueSet[v] = true
	}
	for _, c := range colluded {
		if valueSet[c] {
			match++
		}
	}
	if match > n/4 {
		t.Fatalf("colluding shufflers reconstructed %d/%d values", match, n)
	}
}

func TestRunValidation(t *testing.T) {
	mod := secretshare.NewModulus(32)
	src := rng.New(5)
	cases := map[string]*State{
		"too few parties": {Plain: [][]uint64{{1}}, EncHolder: -1},
		"ragged lengths":  {Plain: [][]uint64{{1, 2}, {3}}, EncHolder: -1},
		"enc no holder":   {Plain: [][]uint64{{1}, {2}}, Enc: make([]*ahe.Ciphertext, 1), EncHolder: -1},
		"holder range":    {Plain: [][]uint64{{1}, {2}}, Enc: make([]*ahe.Ciphertext, 1), EncHolder: 5},
	}
	for name, st := range cases {
		if err := Run(st, Config{Mod: mod, Source: src}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Encrypted state without a public key.
	st := &State{
		Plain:     [][]uint64{{1}, nil},
		Enc:       make([]*ahe.Ciphertext, 1),
		EncHolder: 1,
	}
	if err := Run(st, Config{Mod: mod, Source: src}); err == nil {
		t.Error("encrypted state without pub key should error")
	}
	// Missing source.
	st2 := makeSharedState([]uint64{1, 2}, 2, mod, src)
	if err := Run(st2, Config{Mod: mod}); err == nil {
		t.Error("missing source should error")
	}
}

func TestRevealRequiresKeyForEncrypted(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	c, err := key.Encrypt(5)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{
		Plain:     [][]uint64{{1}, nil},
		Enc:       []*ahe.Ciphertext{c},
		EncHolder: 1,
	}
	if _, err := RevealParallel(st, mod, nil, 1); err == nil {
		t.Fatal("Reveal without key should error")
	}
}

func TestMeterAccountsCommunication(t *testing.T) {
	mod := secretshare.NewModulus(32)
	src := rng.New(6)
	var meter transport.Meter
	values := make([]uint64, 100)
	st := makeSharedState(values, 3, mod, src)
	if err := Run(st, Config{Mod: mod, Source: src, Meter: &meter}); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, p := range meter.Parties() {
		total += meter.Stats(p).SentBytes
	}
	// C(3,2) = 3 rounds; in each the seeker sends 2 hide parts, each of
	// the 2 hiders sends 2 reshare parts off-party (800 bytes a
	// vector), and the lead hider sends one 32-byte seed.
	plainWant := int64(3*(2+2*2)*800 + 3*32)
	if total != plainWant {
		t.Fatalf("metered %d bytes, want %d", total, plainWant)
	}

	// EOS: the same hops, except that the one carrying the ciphertext
	// vector bills CiphertextBytes an element instead of 8 — one,
	// whatever the seed: the seated holder 2 hides in rounds 0 ({1, 2})
	// and 1 ({0, 2}) and reshares the vector to party 0 for round 2
	// ({0, 1}), who keeps it.
	key := dgk(t)
	meter = transport.Meter{}
	est := buildEncState(t, values, 3, mod, key, rng.New(8))
	if err := Run(est, Config{Mod: mod, Source: src, Pub: key.DGKPublicKey, Meter: &meter}); err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, p := range meter.Parties() {
		total += meter.Stats(p).SentBytes
	}
	perHop := int64(key.CiphertextBytes()-8) * 100
	if extra := total - plainWant; extra != perHop {
		t.Fatalf("metered %d bytes: not the plain total %d plus 1 ciphertext hop of %d extra bytes", total, plainWant, perHop)
	}
}

var errInjectedAddPlain = errors.New("oblivious test: injected FoldChunk fault")

// failingPub wraps a real public key and fails every FoldChunk that
// would take the count of folded ciphertexts past failAt — a fault
// inside one party's ciphertext work while its peers are blocked on the
// transport.
type failingPub struct {
	ahe.PublicKey
	calls  atomic.Int64
	failAt int64
}

func (k *failingPub) FoldChunk(dst, src []*ahe.Ciphertext, ms []uint64, refresh bool, sc *ahe.Scratch) error {
	if k.calls.Add(int64(len(ms))) > k.failAt {
		return errInjectedAddPlain
	}
	return k.PublicKey.FoldChunk(dst, src, ms, refresh, sc)
}

// TestRunAbortsAllPartiesOnError: when one party fails mid-shuffle, Run
// must return that party's error — not the abort its peers observe —
// and every goroutine it started (parties and their senders) must
// exit, whether the fault is in the first departure or the last. At
// r = 3 there are two, n folded ciphertexts each: the hop 2 → 0 while
// its peers wait on the reshare, then party 0's exit.
func TestRunAbortsAllPartiesOnError(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	const r, n = 3, 12
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i)
	}
	before := runtime.NumGoroutine()
	for _, failAt := range []int64{0, n / 2, n + n/2} {
		st := buildEncState(t, values, r, mod, key, rng.New(61))
		pub := &failingPub{PublicKey: key.DGKPublicKey, failAt: failAt}
		err := Run(st, Config{Mod: mod, Source: rng.New(62), Pub: pub})
		if !errors.Is(err, errInjectedAddPlain) {
			t.Fatalf("failAt=%d: got %v, want the injected error", failAt, err)
		}
		// The released senders exit on their own schedule; wait for them.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("failAt=%d: %d goroutines before Run, %d after", failAt, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRunLeavesItsInputUnchanged: the shuffle writes into no vector it
// is given — not a plaintext word, not a ciphertext — whether it
// succeeds or a party faults in the middle of it. Run hands each
// RunParty engine the state's own vectors, so this is RunParty's
// contract too; the cluster shuffler relies on it when it passes its
// buffered column and cached fakes to the engine as they are and
// retries an aborted attempt from them. Both seats run: r-1 (PEOS's,
// two departures) and 0 (a seeking holder, three).
func TestRunLeavesItsInputUnchanged(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	const r, n = 3, 12
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(7 * i)
	}
	for _, seat := range []int{r - 1, 0} {
		for _, failAt := range []int64{-1, n / 2, n + n/2} { // -1: no fault
			st := buildEncState(t, values, r, mod, key, rng.New(63))
			st.Plain[r-1], st.Plain[seat] = st.Plain[seat], nil
			st.EncHolder = seat
			plain, enc := slices.Clone(st.Plain), slices.Clone(st.Enc)
			words := make([][]uint64, r)
			for j, p := range plain {
				words[j] = slices.Clone(p)
			}
			blobs := make([][]byte, n)
			for i, c := range enc {
				blobs[i] = key.Serialize(c)
			}
			var pub ahe.PublicKey = key.DGKPublicKey
			if failAt >= 0 {
				pub = &failingPub{PublicKey: pub, failAt: failAt}
			}
			err := Run(st, Config{Mod: mod, Source: rng.New(64), Pub: pub})
			if failAt < 0 && err != nil {
				t.Fatalf("seat %d: %v", seat, err)
			}
			if failAt >= 0 && !errors.Is(err, errInjectedAddPlain) {
				t.Fatalf("seat %d failAt=%d: got %v, want the injected error", seat, failAt, err)
			}
			for j := range plain {
				if !slices.Equal(plain[j], words[j]) {
					t.Fatalf("seat %d failAt=%d: party %d's input words changed", seat, failAt, j)
				}
			}
			for i, c := range enc {
				if !bytes.Equal(key.Serialize(c), blobs[i]) {
					t.Fatalf("seat %d failAt=%d: input ciphertext %d changed", seat, failAt, i)
				}
			}
		}
	}
}

func TestEOSSkipRerandomizeStillCorrect(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	src := rng.New(17)
	const r, n = 3, 25
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i * 3)
	}
	shares := secretshare.SplitVector(values, r, mod, src)
	enc := make([]*ahe.Ciphertext, n)
	for i, s := range shares[0] {
		c, err := key.Encrypt(s)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	shares[0] = nil
	st := &State{Plain: shares, Enc: enc, EncHolder: 0}
	err := Run(st, Config{
		Mod: mod, Source: src, Pub: key.DGKPublicKey, SkipRerandomize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RevealParallel(st, mod, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedCopy(out)
	want := sortedCopy(values)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("fast mode changed the multiset")
		}
	}
}

func TestRevealParallelMatchesSequential(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	src := rng.New(18)
	const r, n = 3, 33
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i * 11)
	}
	shares := secretshare.SplitVector(values, r, mod, src)
	enc := make([]*ahe.Ciphertext, n)
	for i, s := range shares[2] {
		c, err := key.Encrypt(s)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	shares[2] = nil
	st := &State{Plain: shares, Enc: enc, EncHolder: 2}
	seq, err := RevealParallel(st, mod, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 100} {
		par, err := RevealParallel(st, mod, key, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: mismatch at %d", workers, i)
			}
		}
	}
}

// TestRevealParallelEmptyState: a collection with zero reports must
// reveal to an empty vector, not spin up workers or index out of range.
func TestRevealParallelEmptyState(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	st := &State{Plain: [][]uint64{{}, {}, nil}, Enc: nil, EncHolder: 2}
	for _, workers := range []int{0, 1, 8} {
		out, err := RevealParallel(st, mod, key, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 0 {
			t.Fatalf("workers=%d: got %d words from an empty state", workers, len(out))
		}
	}
}

var errInjectedDecrypt = errors.New("oblivious test: injected decrypt fault")

// failingKey wraps a real private key and fails every decryption after
// the first failAt ciphertexts — a mid-chunk fault injected into the
// reveal fan-out.
type failingKey struct {
	ahe.PrivateKey
	mu     sync.Mutex
	calls  int
	failAt int
	err    error
}

func (k *failingKey) DecryptChunk(dst []uint64, cs []*ahe.Ciphertext, sc *ahe.Scratch) error {
	k.mu.Lock()
	n := k.calls
	k.calls += len(cs)
	k.mu.Unlock()
	if n+len(cs) > k.failAt {
		return k.err
	}
	return k.PrivateKey.DecryptChunk(dst, cs, sc)
}

// TestRevealParallelDecryptErrorPropagates: when one worker's decryption
// fails mid-chunk, RevealParallel must return that error — not
// deadlock waiting on the failed worker, not panic, not report partial
// sums as success. Runs under -race in CI to catch unsynchronized
// error plumbing.
func TestRevealParallelDecryptErrorPropagates(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	src := rng.New(44)
	const r, n = 3, 24
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i)
	}
	shares := secretshare.SplitVector(values, r, mod, src)
	enc := make([]*ahe.Ciphertext, n)
	for i, s := range shares[2] {
		c, err := key.Encrypt(s)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	shares[2] = nil
	wantErr := errInjectedDecrypt
	for _, workers := range []int{1, 2, 4, n + 5} {
		for _, failAt := range []int{0, 1, n / 2, n - 1} {
			st := &State{Plain: shares, Enc: enc, EncHolder: 2}
			fk := &failingKey{PrivateKey: key, failAt: failAt, err: wantErr}
			if _, err := RevealParallel(st, mod, fk, workers); err != wantErr {
				t.Fatalf("workers=%d failAt=%d: got %v, want the injected error", workers, failAt, err)
			}
		}
	}
}

// indexedFailKey fails decryption with a per-ciphertext error, so a
// test can tell WHICH failure a fan-out surfaced.
type indexedFailKey struct {
	ahe.PrivateKey
	fail map[*ahe.Ciphertext]error
}

func (k *indexedFailKey) DecryptChunk(dst []uint64, cs []*ahe.Ciphertext, sc *ahe.Scratch) error {
	for _, c := range cs {
		if err := k.fail[c]; err != nil {
			return err
		}
	}
	return k.PrivateKey.DecryptChunk(dst, cs, sc)
}

// TestRevealParallelDerivedWidth: RevealParallel(…, 0) — the call every
// production site makes — takes its width from GOMAXPROCS through the
// shared parFor, so width 1 and width 4 must both return the original
// words in order, and with two failing ciphertexts in different chunks the error of
// the lowest-index chunk wins at either width.
func TestRevealParallelDerivedWidth(t *testing.T) {
	key := dgk(t)
	mod := secretshare.NewModulus(32)
	const r, n = 3, 24
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i * 13)
	}
	st := buildEncState(t, values, r, mod, key, rng.New(52))
	// Width 4 over 24 elements: chunks [0,6) [6,12) [12,18) [18,24).
	errLow, errHigh := errors.New("decrypt 5 failed"), errors.New("decrypt 20 failed")
	failing := &indexedFailKey{PrivateKey: key, fail: map[*ahe.Ciphertext]error{st.Enc[5]: errLow, st.Enc[20]: errHigh}}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 4} {
		runtime.GOMAXPROCS(width)
		out, err := RevealParallel(st, mod, key, 0)
		if err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
		for i, v := range values {
			if out[i] != v {
				t.Fatalf("width=%d: word %d reveals %d, want %d", width, i, out[i], v)
			}
		}
		if _, err := RevealParallel(st, mod, failing, 0); err != errLow {
			t.Fatalf("width=%d: got %v, want the lowest-index chunk's error %v", width, err, errLow)
		}
	}
}
