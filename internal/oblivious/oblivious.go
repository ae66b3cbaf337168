// Package oblivious implements the resharing-based oblivious shuffle of
// Laur, Willemson & Zhang (§II-C) and the paper's Encrypted Oblivious
// Shuffle (EOS, §VI-A3, Figure 2).
//
// r shufflers each hold one additive share vector of the n values.
// With t = floor(r/2)+1 "hiders" per round, the protocol runs one round
// per t-subset of shufflers (C(r, t) rounds): the r-t seekers reshare
// their vectors to the hiders, the hiders permute everything with a
// jointly agreed permutation, and then reshare back to all r parties.
// After all rounds, no coalition of r-t shufflers knows the composite
// permutation.
//
// EOS strengthens this: one of the r share vectors is encrypted under
// the server's additively homomorphic key, so even all r shufflers
// colluding cannot reconstruct the values — yet the shares can still be
// split, accumulated and permuted, processed under AHE (Figure 2). The
// encrypted share is a pair, the ciphertexts and the plaintext mass
// owed to them: splits and sums touch only the owed mass, a permutation
// moves pointers, and the ciphertexts are worked on only when they
// leave a party — one homomorphic addition of the owed mass and one
// rerandomization per element.
//
// There is one engine. RunParty (party.go) is a single shuffler
// exchanging messages with its peers over a Transport; Run seats r of
// them on in-memory channels for the in-process protocol and the
// experiments, and internal/cluster runs one per node over TCP.
package oblivious

import (
	"errors"
	"fmt"
	"sync"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// Config parameterizes a shuffle run.
type Config struct {
	// Mod is the share ring Z_{2^l}.
	Mod secretshare.Modulus
	// Source provides the shufflers' randomness. Run — the in-process
	// simulation — seeds one stream per party from it; RunParty draws
	// from it directly as that party's own (secretshare.Crypto on a
	// real node).
	Source secretshare.Source
	// Pub is the server's AHE key; required iff the shuffle carries an
	// encrypted vector.
	Pub ahe.PublicKey
	// Meter optionally accounts communication (Table III payload
	// bytes, at the sender) and ciphertext computation per shuffler
	// ("shuffler-0", "shuffler-1", ...).
	Meter *transport.Meter
	// SkipRerandomize omits the per-element ciphertext refresh on every
	// departure — the only refresh there is: the step that sends the
	// vector off a party (or, after the last round, towards the
	// analyzer) is what unlinks positions across the permutations that
	// party applied. The paper's prototype accounts only homomorphic
	// additions for the shufflers (Table III); this knob reproduces that
	// cost model. It weakens unlinkability: with the refresh off, what a
	// party forwards is a deterministic AddPlain image of what it
	// received, so a party seeing a ciphertext before and after (with
	// the analyzer's help) can track that position. Leave it off outside
	// benchmarks.
	SkipRerandomize bool
}

// State is the shufflers' joint state: party j holds Plain[j], except
// the EncHolder (if any), who holds Enc.
type State struct {
	// Plain[j] is shuffler j's plaintext share vector (nil for the
	// encrypted holder).
	Plain [][]uint64
	// Enc is the single AHE-encrypted share vector, held by
	// Plain[EncHolder]'s owner. Nil for a plain oblivious shuffle.
	Enc []*ahe.Ciphertext
	// EncHolder is the index of the shuffler holding Enc, or -1.
	EncHolder int
}

// NumParties returns r.
func (st *State) NumParties() int { return len(st.Plain) }

// Len returns the vector length n.
func (st *State) Len() int {
	if st.EncHolder >= 0 {
		return len(st.Enc)
	}
	for _, p := range st.Plain {
		if p != nil {
			return len(p)
		}
	}
	return 0
}

func (st *State) validate(cfg Config) error {
	r := len(st.Plain)
	if r < 2 {
		return errors.New("oblivious: need at least 2 shufflers")
	}
	n := st.Len()
	for j, p := range st.Plain {
		if j == st.EncHolder {
			if p != nil {
				return fmt.Errorf("oblivious: encrypted holder %d also has a plaintext vector", j)
			}
			continue
		}
		if len(p) != n {
			return fmt.Errorf("oblivious: shuffler %d vector has length %d, want %d", j, len(p), n)
		}
	}
	if st.EncHolder >= 0 {
		if st.EncHolder >= r {
			return errors.New("oblivious: EncHolder out of range")
		}
		if len(st.Enc) != n {
			return errors.New("oblivious: encrypted vector length mismatch")
		}
		if cfg.Pub == nil {
			return errors.New("oblivious: encrypted state requires an AHE public key")
		}
	} else if st.Enc != nil {
		return errors.New("oblivious: Enc set but EncHolder = -1")
	}
	if cfg.Source == nil {
		return errors.New("oblivious: Config.Source is required")
	}
	return nil
}

// Hiders returns t = floor(r/2)+1, the hider count (§II-C).
func Hiders(r int) int { return r/2 + 1 }

// Combinations enumerates all t-subsets of [0, r) in lexicographic
// order — the hide-and-seek partitions.
func Combinations(r, t int) [][]int {
	if t < 0 || t > r {
		return nil
	}
	var out [][]int
	comb := make([]int, t)
	for i := range comb {
		comb[i] = i
	}
	for {
		out = append(out, append([]int(nil), comb...))
		// Advance.
		i := t - 1
		for i >= 0 && comb[i] == r-t+i {
			i--
		}
		if i < 0 {
			return out
		}
		comb[i]++
		for j := i + 1; j < t; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
}

func shufflerName(j int) string { return fmt.Sprintf("shuffler-%d", j) }

// Run executes the oblivious shuffle (EOS when the state carries an
// encrypted vector) in process: it seats one RunParty engine per
// shuffler on an in-memory transport, joins them, and replaces st's
// vectors with theirs. The vectors and ciphertexts st held on entry are
// not written. Each party's randomness is its own stream, seeded from
// cfg.Source serially in index order, so a seeded Source reproduces
// the run whatever the goroutine schedule. On return the share vectors
// represent the same multiset of values in a permuted order, and (for
// EOS) EncHolder points at the final ciphertext holder.
func Run(st *State, cfg Config) error {
	if err := st.validate(cfg); err != nil {
		return err
	}
	if st.Len() == 0 {
		return nil // nothing to permute
	}
	r := st.NumParties()
	sources := make([]secretshare.Source, r)
	for j := range sources {
		sources[j] = rng.New(cfg.Source.Uint64())
	}
	mesh := newMemMesh(r)
	plain := make([][]uint64, r)
	enc := make([][]*ahe.Ciphertext, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			pcfg := PartyConfig{Config: cfg, Index: j, Parties: r}
			pcfg.Source = sources[j]
			var held []*ahe.Ciphertext // st.Plain[j] is nil for the holder
			if j == st.EncHolder {
				held = st.Enc
			}
			var err error
			if plain[j], enc[j], err = RunParty(pcfg, memTransport{mesh, j}, st.Plain[j], held); err != nil {
				mesh.abort(err)
			}
		}(j)
	}
	wg.Wait()
	if mesh.err != nil {
		return mesh.err
	}
	holder, holders := -1, 0
	for j, e := range enc {
		if e != nil {
			holder = j
			holders++
		}
	}
	want := 0
	if st.EncHolder >= 0 {
		want = 1
	}
	if holders != want {
		return fmt.Errorf("oblivious: %d shufflers ended holding a ciphertext vector, want %d", holders, want)
	}
	st.Plain, st.EncHolder, st.Enc = plain, holder, nil
	if holder >= 0 {
		st.Enc = enc[holder]
	}
	return nil
}

// memMesh is the in-memory transport Run seats its parties on: one
// FIFO channel per ordered pair of parties, and a done channel closed
// by the first party that fails, so that no peer — and no sendAll
// goroutine — stays blocked on a party that has left.
type memMesh struct {
	pipes [][]chan Msg // pipes[from][to]
	done  chan struct{}
	once  sync.Once
	err   error // the first failure; read after the parties are joined
}

func newMemMesh(r int) *memMesh {
	m := &memMesh{pipes: make([][]chan Msg, r), done: make(chan struct{})}
	for from := range m.pipes {
		m.pipes[from] = make([]chan Msg, r)
		for to := range m.pipes[from] {
			// Capacity 3 is one round's sends on a pair (hide part,
			// seed, reshare part), so no party waits on a slower peer
			// inside a round.
			m.pipes[from][to] = make(chan Msg, 3)
		}
	}
	return m
}

// abort records the first failure and releases every blocked party.
func (m *memMesh) abort(err error) {
	m.once.Do(func() {
		m.err = err
		close(m.done)
	})
}

// errMeshAborted is what the surviving parties observe after an abort.
var errMeshAborted = errors.New("oblivious: shuffle aborted by a peer's failure")

// memTransport is one party's seat on a memMesh.
type memTransport struct {
	mesh *memMesh
	me   int
}

// Send implements Transport.
func (t memTransport) Send(to int, m Msg) error {
	select {
	case t.mesh.pipes[t.me][to] <- m:
		return nil
	case <-t.mesh.done:
		return errMeshAborted
	}
}

// Recv implements Transport.
func (t memTransport) Recv(from int) (Msg, error) {
	select {
	case m := <-t.mesh.pipes[from][t.me]:
		return m, nil
	case <-t.mesh.done:
		return Msg{}, errMeshAborted
	}
}

// splitPlain additively splits vec into k share vectors.
func splitPlain(vec []uint64, k int, cfg Config) [][]uint64 {
	return secretshare.SplitVector(vec, k, cfg.Mod, cfg.Source)
}

func addInto(dst, src []uint64, mod secretshare.Modulus) {
	for i := range dst {
		dst[i] = mod.Add(dst[i], src[i])
	}
}

func applyPermUint64(vec []uint64, perm []int) []uint64 {
	out := make([]uint64, len(vec))
	for i, p := range perm {
		out[i] = vec[p]
	}
	return out
}

func applyPermCipher(vec []*ahe.Ciphertext, perm []int) []*ahe.Ciphertext {
	out := make([]*ahe.Ciphertext, len(vec))
	for i, p := range perm {
		out[i] = vec[p]
	}
	return out
}

// RevealParallel reconstructs the shuffled values: the server decrypts
// the ciphertext vector (if any) and sums all share vectors mod 2^l.
// It does not mutate st. The AHE decryptions fan out over `workers`
// goroutines, one DecryptChunk each — the paper's server parallelizes exactly this
// phase ("the decryptions is done in parallel ... we use 32 threads",
// §VII-D). workers < 1 uses GOMAXPROCS, what every production caller
// passes.
func RevealParallel(st *State, mod secretshare.Modulus, priv ahe.PrivateKey, workers int) ([]uint64, error) {
	n := st.Len()
	out := make([]uint64, n)
	for j, p := range st.Plain {
		if j == st.EncHolder {
			continue
		}
		addInto(out, p, mod)
	}
	if st.EncHolder < 0 {
		return out, nil
	}
	if priv == nil {
		return nil, errors.New("oblivious: encrypted state requires the private key to reveal")
	}
	if workers < 1 {
		workers = fanOut()
	}
	err := parFor(n, workers, func(_, lo, hi int) error {
		ms := make([]uint64, hi-lo)
		if err := priv.DecryptChunk(ms, st.Enc[lo:hi], priv.NewScratch()); err != nil {
			return err
		}
		for i, m := range ms {
			out[lo+i] = mod.Add(out[lo+i], m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
