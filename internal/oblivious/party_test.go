package oblivious

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// deadPeerTransport is the production in-memory transport with some
// parties' links severed: any Send or Recv touching a dead party fails
// (the kill test).
type deadPeerTransport struct {
	memTransport
	dead map[int]bool
}

func (t deadPeerTransport) Send(to int, m Msg) error {
	if t.dead[to] {
		return errors.New("peer connection closed")
	}
	return t.memTransport.Send(to, m)
}

func (t deadPeerTransport) Recv(from int) (Msg, error) {
	if t.dead[from] {
		return Msg{}, errors.New("peer connection closed")
	}
	return t.memTransport.Recv(from)
}

// partyCfg is party j's seat in an r-party test shuffle.
func partyCfg(j, r int, pub ahe.PublicKey, seed uint64) PartyConfig {
	return PartyConfig{
		Config:  Config{Mod: secretshare.NewModulus(64), Source: rng.Substream(seed, uint64(j)), Pub: pub},
		Index:   j,
		Parties: r,
	}
}

// runParties executes the distributed shuffle over the in-memory
// transport and returns each party's final vectors.
func runParties(t *testing.T, r int, vectors [][]uint64, enc []*ahe.Ciphertext, encHolder int, pub ahe.PublicKey, seed uint64) ([][]uint64, []([]*ahe.Ciphertext), []error) {
	t.Helper()
	mesh := newMemMesh(r)
	outPlain := make([][]uint64, r)
	outEnc := make([][]*ahe.Ciphertext, r)
	errs := make([]error, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var plain []uint64
			var e []*ahe.Ciphertext
			if j == encHolder {
				e = enc
			} else {
				plain = vectors[j]
			}
			outPlain[j], outEnc[j], errs[j] = RunParty(partyCfg(j, r, pub, seed), memTransport{mesh, j}, plain, e)
		}(j)
	}
	wg.Wait()
	return outPlain, outEnc, errs
}

func sortedWords(words []uint64) []uint64 {
	out := append([]uint64(nil), words...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRunPartyPlainPreservesMultiset(t *testing.T) {
	mod := secretshare.NewModulus(64)
	for _, r := range []int{2, 3, 4, 5} {
		r := r
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			const n = 23
			values := make([]uint64, n)
			src := rng.New(77)
			for i := range values {
				values[i] = src.Uint64()
			}
			vectors := secretshare.SplitVector(values, r, mod, src)
			// A plain shuffle runs keyless.
			outPlain, outEnc, errs := runParties(t, r, vectors, nil, -1, nil, 5)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("party %d: %v", j, err)
				}
				if outEnc[j] != nil {
					t.Fatalf("party %d ended with a ciphertext vector in a plain run", j)
				}
			}
			got, err := RevealParallel(&State{Plain: outPlain, EncHolder: -1}, mod, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedWords(values)
			if gotS := sortedWords(got); fmt.Sprint(gotS) != fmt.Sprint(want) {
				t.Fatalf("multiset changed:\n got %v\nwant %v", gotS, want)
			}
			// The order must actually have changed (n=23 elements; the
			// odds of the identity permutation surviving every round are
			// negligible — a fixed seed keeps this deterministic).
			if fmt.Sprint(got) == fmt.Sprint(values) {
				t.Fatal("shuffle left the vector order unchanged")
			}
		})
	}
}

// TestRunPartyEncryptedPreservesMultisetAndSingleHolder seats the
// ciphertext vector at every index, not just PEOS's r-1: a holder
// outside round 0's hiders takes the encrypted-seeker path (hide split,
// refresh, hop to the lead hider), and whoever holds the vector carries
// the mass it takes in as a pending vector until the next split.
func TestRunPartyEncryptedPreservesMultisetAndSingleHolder(t *testing.T) {
	mod := secretshare.NewModulus(64)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	for _, r := range []int{2, 3, 4} {
		r := r
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			const n = 11
			values := make([]uint64, n)
			src := rng.New(99)
			for i := range values {
				values[i] = src.Uint64()
			}
			vectors := secretshare.SplitVector(values, r, mod, src)
			want := sortedWords(values)
			for encHolder := 0; encHolder < r; encHolder++ {
				enc := make([]*ahe.Ciphertext, n)
				for i, w := range vectors[encHolder] {
					c, err := pub.Encrypt(w)
					if err != nil {
						t.Fatal(err)
					}
					enc[i] = c
				}
				outPlain, outEnc, errs := runParties(t, r, vectors, enc, encHolder, pub, 9)
				holders := 0
				st := &State{Plain: make([][]uint64, r), EncHolder: -1}
				for j, err := range errs {
					if err != nil {
						t.Fatalf("seat %d, party %d: %v", encHolder, j, err)
					}
					if outEnc[j] != nil {
						holders++
						st.Enc = outEnc[j]
						st.EncHolder = j
					} else {
						st.Plain[j] = outPlain[j]
					}
				}
				if holders != 1 {
					t.Fatalf("seat %d: want exactly 1 ciphertext holder, got %d", encHolder, holders)
				}
				got, err := RevealParallel(st, mod, priv, 1)
				if err != nil {
					t.Fatal(err)
				}
				if gotS := sortedWords(got); fmt.Sprint(gotS) != fmt.Sprint(want) {
					t.Fatalf("seat %d: multiset changed:\n got %v\nwant %v", encHolder, gotS, want)
				}
			}
		})
	}
}

// A dead peer must surface as an error from every surviving party, not
// as a hang or a silently wrong shuffle.
func TestRunPartyDeadPeerFailsCleanly(t *testing.T) {
	const r = 3
	mod := secretshare.NewModulus(64)
	const n = 8
	values := make([]uint64, n)
	src := rng.New(3)
	for i := range values {
		values[i] = src.Uint64()
	}
	vectors := secretshare.SplitVector(values, r, mod, src)

	mesh := newMemMesh(r)
	dead := map[int]bool{2: true}
	var wg sync.WaitGroup
	errs := make([]error, r)
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			tr := deadPeerTransport{memTransport{mesh, j}, dead}
			_, _, errs[j] = RunParty(partyCfg(j, r, nil, 4), tr, vectors[j], nil)
		}(j)
	}
	wg.Wait()
	for j := 0; j < 2; j++ {
		if errs[j] == nil {
			t.Fatalf("party %d did not observe the dead peer", j)
		}
	}
}

func TestRunPartyConfigValidation(t *testing.T) {
	pub := ahe.PublicKey(dgk(t))
	base := partyCfg(0, 2, pub, 1)
	tr := memTransport{newMemMesh(2), 0}
	if _, _, err := RunParty(base, tr, nil, nil); err == nil {
		t.Fatal("accepted a party with no vector")
	}
	cfg := base
	cfg.Source = nil
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted a party without randomness")
	}
	// A plain shuffle may run keyless; holding the ciphertext vector
	// may not.
	cfg = base
	cfg.Pub = nil
	ct, err := pub.Encrypt(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunParty(cfg, tr, nil, []*ahe.Ciphertext{ct}); err == nil {
		t.Fatal("accepted a ciphertext holder without the AHE key")
	}
	cfg = base
	cfg.Parties = 1
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted a single-party shuffle")
	}
	cfg = base
	cfg.Index = 5
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted an out-of-range index")
	}
}

// A party of a keyless (plain) shuffle that is handed a ciphertext
// vector must fail: it could neither fold nor reshare it.
func TestRunPartyKeylessRejectsCiphertext(t *testing.T) {
	ct, err := dgk(t).Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	// r = 2: both parties hide, so party 0's first receive is party 1's
	// reshare message.
	mesh := newMemMesh(2)
	mesh.pipes[1][0] <- Msg{Kind: MsgEnc, Round: 0, Enc: []*ahe.Ciphertext{ct}}
	_, _, err = RunParty(partyCfg(0, 2, nil, 1), memTransport{mesh, 0}, []uint64{1}, nil)
	if err == nil || !strings.Contains(err.Error(), "without the AHE key") {
		t.Fatalf("got %v, want the keyless-party error", err)
	}
}

// encSend is one MsgEnc a party put on the transport: whether the
// sender was seeking in that round (a hide-phase send; a hider sends in
// the reshare), the elements as they left (the engine writes into no
// ciphertext it was given, so they stay so), and how many ciphertexts
// the sender had been seated with or had received by then.
type encSend struct {
	seeking bool
	elems   []*ahe.Ciphertext
	heldN   int
}

// recordingTransport wraps a party's seat on the in-memory mesh and
// records every ciphertext vector that crosses it, in either direction.
type recordingTransport struct {
	memTransport
	mu    sync.Mutex // Send runs on the engine's sendAll goroutine
	held  []*ahe.Ciphertext
	sends []encSend
}

func (t *recordingTransport) Send(to int, m Msg) error {
	if m.Kind == MsgEnc {
		// RunParty walks the hider sets last first.
		rounds := Combinations(len(t.mesh.pipes), Hiders(len(t.mesh.pipes)))
		seeking := !slices.Contains(rounds[len(rounds)-1-m.Round], t.me)
		t.mu.Lock()
		t.sends = append(t.sends, encSend{seeking, m.Enc, len(t.held)})
		t.mu.Unlock()
	}
	return t.memTransport.Send(to, m)
}

func (t *recordingTransport) Recv(from int) (Msg, error) {
	m, err := t.memTransport.Recv(from)
	if err == nil && m.Kind == MsgEnc {
		t.mu.Lock()
		t.held = append(t.held, m.Enc...)
		t.mu.Unlock()
	}
	return m, err
}

// countingPub wraps the key and counts the ciphertexts of the engine's
// one ciphertext kernel: folded, and refreshed.
type countingPub struct {
	ahe.PublicKey
	addPlains, rerandomizes atomic.Int64
}

func (k *countingPub) FoldChunk(dst, src []*ahe.Ciphertext, ms []uint64, refresh bool, sc *ahe.Scratch) error {
	k.addPlains.Add(int64(len(ms)))
	if refresh {
		k.rerandomizes.Add(int64(len(ms)))
	}
	return k.PublicKey.FoldChunk(dst, src, ms, refresh, sc)
}

// recording is what runRecorded observed of one shuffle.
type recording struct {
	trs []*recordingTransport
	// draws is the number of randomizers the key drew during the shuffle
	// alone (pool hits + misses) — the users' Encrypt calls happen before
	// the count starts — and addPlains / rerandomizes the ciphertexts the
	// engine folded and refreshed.
	draws, addPlains, rerandomizes uint64
}

// runRecorded runs one encrypted shuffle of n values over r RunParty
// engines on recording transports, party r-1 seated with the ciphertext
// vector, as in PEOS.
func runRecorded(t *testing.T, r, n int, seed uint64, skipRerandomize bool) recording {
	t.Helper()
	priv := dgk(t)
	mod := secretshare.NewModulus(priv.PlaintextBits())
	src := rng.New(uint64(1000*r + n))
	values := make([]uint64, n)
	for i := range values {
		values[i] = mod.Random(src)
	}
	vectors := secretshare.SplitVector(values, r, mod, src)
	enc := make([]*ahe.Ciphertext, n)
	for i, w := range vectors[r-1] {
		c, err := priv.Encrypt(w)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = c
	}
	mesh := newMemMesh(r)
	trs := make([]*recordingTransport, r)
	for j := range trs {
		trs[j] = &recordingTransport{memTransport: memTransport{mesh, j}}
	}
	trs[r-1].held = slices.Clone(enc)

	pub := &countingPub{PublicKey: priv}
	hits0, misses0 := priv.RandomizerPoolStats()
	errs := make([]error, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cfg := partyCfg(j, r, pub, seed)
			cfg.Mod, cfg.SkipRerandomize = mod, skipRerandomize
			if j == r-1 {
				_, _, errs[j] = RunParty(cfg, trs[j], nil, enc)
			} else {
				_, _, errs[j] = RunParty(cfg, trs[j], vectors[j], nil)
			}
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", j, err)
		}
	}
	hits1, misses1 := priv.RandomizerPoolStats()
	return recording{
		trs:          trs,
		draws:        (hits1 - hits0) + (misses1 - misses0),
		addPlains:    uint64(pub.addPlains.Load()),
		rerandomizes: uint64(pub.rerandomizes.Load()),
	}
}

// countLinks runs, for every party, the linking test a colluding
// previous holder and analyzer would: it counts the sent elements s
// that are a deterministic AddPlain image of some element h the sender
// held before the send. A party applies up to `splits` un-refreshed
// AddPlains between taking a vector in and forwarding it, each by an
// exponent below 2^l, and g's order is a multiple of 2^l, not 2^l: the
// images are h * g^(Dec(s)-Dec(h) + j*2^l) for j < splits.
func countLinks(t *testing.T, trs []*recordingTransport, splits int) (links, sent int) {
	t.Helper()
	priv := dgk(t)
	mod := secretshare.NewModulus(priv.PlaintextBits())
	dec := func(c *ahe.Ciphertext) uint64 {
		m, err := priv.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	addPlain := func(c *ahe.Ciphertext, m uint64) *ahe.Ciphertext {
		image, err := priv.AddPlain(c, m)
		if err != nil {
			t.Fatal(err)
		}
		return image
	}
	for _, tr := range trs {
		for _, send := range tr.sends {
			for _, s := range send.elems {
				sent++
				for _, h := range tr.held[:send.heldN] {
					image := addPlain(h, mod.Sub(dec(s), dec(h)))
					for j := 0; j < splits; j++ {
						if bytes.Equal(priv.Serialize(image), priv.Serialize(s)) {
							links++
						}
						// * g^(2^l), as (2^l - 1) + 1.
						image = addPlain(addPlain(image, mod.Sub(0, 1)), 1)
					}
				}
			}
		}
	}
	return links, sent
}

// TestForwardedCiphertextsAreUnlinkable: nothing a party forwards is a
// deterministic AddPlain image of something it was seated with or had
// received — the property the departure refresh (drawn after the last
// permutation the sender applied) is there for. With the refresh
// switched off the same check must link every element of the seated
// holder's one forward, so a pass above is not a blind check.
func TestForwardedCiphertextsAreUnlinkable(t *testing.T) {
	const n = 5
	for _, r := range []int{2, 3, 4} {
		splits := len(Combinations(r, Hiders(r)))
		links, sent := countLinks(t, runRecorded(t, r, n, 77, false).trs, splits)
		if links != 0 {
			t.Fatalf("r=%d: %d of %d forwarded ciphertexts are AddPlain images of one the sender held", r, links, sent)
		}
		if r > 2 && sent == 0 {
			t.Fatalf("r=%d: no ciphertext vector crossed the transport", r)
		}
	}
	// r = 3: the seated holder hides in rounds 0 and 1, so its forward is
	// two un-refreshed AddPlains away from what it was seated with.
	if links, _ := countLinks(t, runRecorded(t, 3, n, 77, true).trs, 3); links < n {
		t.Fatalf("SkipRerandomize: the linking test found %d links, want >= %d", links, n)
	}
}

// TestOneRefreshPerDeparture pins the shuffle's ciphertext bill as a
// function of r alone. The PEOS seat r-1 hides in round 0, so no
// ciphertext vector ever moves in a hide phase. The vector's one
// ciphertext step is a departure — each MsgEnc put on the transport,
// plus the final holder's exit towards the analyzer — and it takes one
// fold (the owed mass) and one randomizer per element, and
// nothing else does: not a split, not a holder dealing the vector back
// to itself, not a permutation, not the mass a holder takes in.
func TestOneRefreshPerDeparture(t *testing.T) {
	const n = 6
	// Mesh hops of the ciphertext vector: the walk of heir over the
	// reversed t-subsets from seat r-1.
	hops := map[int]int{2: 0, 3: 1, 4: 1, 5: 2}
	for _, r := range []int{2, 3, 4, 5} {
		for _, seed := range []uint64{77, 78} {
			rec := runRecorded(t, r, n, seed, false)
			sends, hides := 0, 0
			for _, tr := range rec.trs {
				sends += len(tr.sends)
				for _, send := range tr.sends {
					if send.seeking {
						hides++
					}
				}
			}
			if hides != 0 {
				t.Fatalf("r=%d seed %d: %d hide-phase ciphertext vectors, want 0 (the seat hides first)", r, seed, hides)
			}
			if sends != hops[r] {
				t.Fatalf("r=%d seed %d: the ciphertext vector made %d hops, want %d", r, seed, sends, hops[r])
			}
			departures := uint64(sends + 1)
			want := n * departures
			if rec.draws != want || rec.rerandomizes != want {
				t.Fatalf("r=%d seed %d: the shuffle drew %d randomizers for %d refreshed ciphertexts, want %d (n=%d x %d departures)",
					r, seed, rec.draws, rec.rerandomizes, want, n, departures)
			}
			if rec.addPlains != want {
				t.Fatalf("r=%d seed %d: %d folded ciphertexts, want %d (n=%d x %d departures)",
					r, seed, rec.addPlains, want, n, departures)
			}
		}
	}
}
