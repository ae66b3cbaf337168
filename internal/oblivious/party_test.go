package oblivious

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
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
			got := secretshare.CombineVectors(outPlain, mod)
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

func TestRunPartyEncryptedPreservesMultisetAndSingleHolder(t *testing.T) {
	mod := secretshare.NewModulus(64)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	for _, r := range []int{2, 3} {
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
			// The last party holds its share vector encrypted, as in PEOS.
			encHolder := r - 1
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
					t.Fatalf("party %d: %v", j, err)
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
				t.Fatalf("want exactly 1 ciphertext holder, got %d", holders)
			}
			got, err := Reveal(st, mod, priv)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedWords(values)
			if gotS := sortedWords(got); fmt.Sprint(gotS) != fmt.Sprint(want) {
				t.Fatalf("multiset changed:\n got %v\nwant %v", gotS, want)
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

// phaseCall records one Phaser announcement.
type phaseCall struct {
	round int
	phase Phase
}

// phaserTransport wraps the in-memory transport and records the phase
// boundaries RunParty announces — the hook internal/cluster uses to
// re-arm its per-phase network deadlines.
type phaserTransport struct {
	memTransport
	mu    sync.Mutex
	calls []phaseCall
}

func (t *phaserTransport) Phase(round int, phase Phase) {
	t.mu.Lock()
	t.calls = append(t.calls, phaseCall{round, phase})
	t.mu.Unlock()
}

func TestRunPartyAnnouncesPhases(t *testing.T) {
	const (
		r    = 3
		seed = 31
	)
	rounds := len(Combinations(r, Hiders(r)))
	mesh := newMemMesh(r)
	trs := make([]*phaserTransport, r)
	errs := make([]error, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		trs[j] = &phaserTransport{memTransport: memTransport{mesh, j}}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			_, _, errs[j] = RunParty(partyCfg(j, r, nil, seed), trs[j], []uint64{1, 2, 3}, nil)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", j, err)
		}
	}
	var want []phaseCall
	for round := 0; round < rounds; round++ {
		want = append(want,
			phaseCall{round, PhaseHide},
			phaseCall{round, PhaseShuffle},
			phaseCall{round, PhaseReshare},
		)
	}
	want = append(want, phaseCall{rounds, PhaseDone})
	for j, tr := range trs {
		if len(tr.calls) != len(want) {
			t.Fatalf("party %d announced %v, want %v", j, tr.calls, want)
		}
		for i := range want {
			if tr.calls[i] != want[i] {
				t.Fatalf("party %d call %d = %v, want %v", j, i, tr.calls[i], want[i])
			}
		}
	}
}
