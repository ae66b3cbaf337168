package oblivious

// Distributed party engine: the same hide-and-seek EOS as Run, but
// executed from the perspective of ONE shuffler exchanging messages
// with its peers instead of a simulator mutating the joint state. The
// round schedule (Hiders, Combinations) and the share arithmetic are
// shared with the in-process simulator, so the two express one
// protocol; what RunParty adds is the message discipline — who sends
// what to whom in each phase, and in which order a party may block on
// its peers. internal/cluster runs R of these engines over real TCP
// connections to form the networked PEOS shuffler tier.
//
// Per round (hider set H, |H| = t, seekers S = [r] \ H):
//
//	hide     seeker s splits its vector into t parts, one per hider
//	         (the encrypted seeker: t-1 plaintext parts plus the
//	         ciphertext remainder to one hider). Hiders accumulate.
//	shuffle  hiders[0] samples a permutation seed and sends it to the
//	         other hiders; every hider applies the permutation (the
//	         ciphertext hider also rerandomizes).
//	reshare  each hider splits its vector into r parts, one per party
//	         (the ciphertext hider: r-1 plaintext parts plus the
//	         remainder to one party, who becomes the next holder).
//	         Every party sums what it received into its new vector.
//
// Message counts per phase are structural — a hider hears from every
// seeker, a non-lead hider hears one seed, everyone hears from every
// hider in reshare — so a party always knows exactly which peers to
// block on, and FIFO order per peer pair is the only transport
// guarantee required. Each phase's sends run concurrently with its
// receives (two parties sending large vectors to each other must not
// deadlock on full transport buffers).

import (
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// MsgKind discriminates the distributed-shuffle messages.
type MsgKind uint8

const (
	// MsgPlain carries a plaintext share vector (a hide-phase part, a
	// reshare part, or a party's final vector).
	MsgPlain MsgKind = iota + 1
	// MsgEnc carries an AHE ciphertext vector (the encrypted remainder
	// moving to its next holder).
	MsgEnc
	// MsgSeed carries the hiders' joint permutation seed.
	MsgSeed
)

// Msg is one party-to-party message of the distributed oblivious
// shuffle.
type Msg struct {
	// Kind selects which payload field is meaningful.
	Kind MsgKind
	// Round is the hide-and-seek round the message belongs to; both
	// ends validate it so a desynchronized peer is an error, not a
	// corrupted shuffle.
	Round int
	// Words is the plaintext share vector (MsgPlain).
	Words []uint64
	// Enc is the ciphertext vector (MsgEnc).
	Enc []*ahe.Ciphertext
	// Seed is the joint permutation seed (MsgSeed).
	Seed uint64
	// More marks a chunk-streamed fragment: the logical vector
	// continues in the next message from the same sender (same kind,
	// same round). The final fragment — and every unchunked message —
	// has More false, so a legacy single-frame vector is simply the
	// one-fragment case and mixed fleets interoperate.
	More bool
}

// Transport delivers messages between the r parties of one shuffle.
// Implementations must preserve order per (sender, receiver) pair —
// that is the only delivery guarantee the engine relies on. Send may
// block (the engine never sends and receives from the same goroutine
// within a phase); Recv blocks until the next message from that peer
// arrives.
type Transport interface {
	// Send delivers m to party `to`.
	Send(to int, m Msg) error
	// Recv returns the next message sent by party `from`.
	Recv(from int) (Msg, error)
}

// Phase identifies one phase of a hide-and-seek round, in protocol
// order.
type Phase int

// The phases RunParty announces through the Phaser hook.
const (
	// PhaseHide is the split-and-send phase: seekers scatter their
	// vectors to the round's hiders.
	PhaseHide Phase = iota
	// PhaseShuffle is the joint-permutation phase among the hiders.
	PhaseShuffle
	// PhaseReshare is the re-split phase: hiders scatter their
	// accumulated vectors back to all parties.
	PhaseReshare
	// PhaseDone is announced once, after the last round completes.
	PhaseDone
)

// Phaser is optionally implemented by a Transport that wants phase
// boundaries — a networked transport arms per-phase I/O deadlines from
// it, so a peer that keeps a connection alive but never completes a
// phase is cut off. RunParty calls Phase at the start of every phase
// of every round, from the engine goroutine, before any of that
// phase's Send/Recv calls; a phase's concurrent sends are joined
// before the next phase is announced.
type Phaser interface {
	// Phase announces that the engine is entering the given phase of
	// the given round (round == Rounds and PhaseDone at the end).
	Phase(round int, phase Phase)
}

// announce notifies tr of a phase boundary when it cares.
func announce(tr Transport, round int, phase Phase) {
	if p, ok := tr.(Phaser); ok {
		p.Phase(round, phase)
	}
}

// PartyConfig parameterizes one shuffler's engine.
type PartyConfig struct {
	// Index is this party's id in [0, Parties).
	Index int
	// Parties is r, the number of shufflers.
	Parties int
	// Mod is the share ring Z_{2^l}.
	Mod secretshare.Modulus
	// Source is this party's own randomness (its share splits, its
	// permutation seeds when it leads a round, its holder choices).
	// Unlike the simulator's single joint source, every party draws
	// only from its own.
	Source secretshare.Source
	// Pub is the server's AHE key. Every party needs it: any party can
	// become the ciphertext holder through resharing.
	Pub ahe.PublicKey
	// SkipRerandomize reproduces the paper's Table III cost model (see
	// Config.SkipRerandomize for the caveat).
	SkipRerandomize bool
	// Rounds overrides the number of hide-and-seek rounds (0 means the
	// full C(r, t) schedule, required for the security guarantee).
	Rounds int
	// ChunkWords, when > 0, streams the hide/reshare vectors in
	// windows of this many elements: the AHE work on window k+1
	// overlaps the transmission of window k, and each window travels
	// as a Msg fragment with More set (the receiver reassembles).
	// 0 sends every vector as one legacy frame.
	ChunkWords int
}

func (cfg PartyConfig) validate(plain []uint64, enc []*ahe.Ciphertext) error {
	if cfg.Parties < 2 {
		return errors.New("oblivious: need at least 2 shufflers")
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Parties {
		return fmt.Errorf("oblivious: party index %d out of range [0, %d)", cfg.Index, cfg.Parties)
	}
	if cfg.Source == nil {
		return errors.New("oblivious: PartyConfig.Source is required")
	}
	if cfg.Pub == nil {
		return errors.New("oblivious: PartyConfig.Pub is required (any party can become the ciphertext holder)")
	}
	if plain != nil && enc != nil {
		return errors.New("oblivious: a party holds a plaintext or a ciphertext vector, not both")
	}
	if plain == nil && enc == nil {
		return errors.New("oblivious: party holds no vector")
	}
	return nil
}

// RunParty executes the distributed encrypted oblivious shuffle for
// one party. plain is this party's share vector, or nil when it enters
// holding the ciphertext vector enc (exactly one party of the run
// does). It returns the party's post-shuffle vector: plain shares for
// most parties, the ciphertext vector for the final holder.
func RunParty(cfg PartyConfig, tr Transport, plain []uint64, enc []*ahe.Ciphertext) ([]uint64, []*ahe.Ciphertext, error) {
	if err := cfg.validate(plain, enc); err != nil {
		return nil, nil, err
	}
	r := cfg.Parties
	t := Hiders(r)
	partitions := Combinations(r, t)
	rounds := cfg.Rounds
	if rounds <= 0 || rounds > len(partitions) {
		rounds = len(partitions)
	}
	n := len(plain)
	if enc != nil {
		n = len(enc)
	}
	icfg := Config{Mod: cfg.Mod, Source: cfg.Source, Pub: cfg.Pub, SkipRerandomize: cfg.SkipRerandomize}
	for round := 0; round < rounds; round++ {
		var err error
		plain, enc, err = runPartyRound(cfg, icfg, tr, round, partitions[round], n, plain, enc)
		if err != nil {
			return nil, nil, fmt.Errorf("oblivious: party %d round %d: %w", cfg.Index, round, err)
		}
	}
	announce(tr, rounds, PhaseDone)
	return plain, enc, nil
}

// sendAll runs sends in a goroutine so a phase's sends never block its
// receives; the returned channel yields the first send error.
func sendAll(fn func() error) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	return errc
}

// expectMsg receives the next message from a peer and validates the
// round; the caller validates the kind, since a receiver cannot know
// in advance whether a peer forwards plaintext or the ciphertext
// remainder.
func expectMsg(tr Transport, from, round int) (Msg, error) {
	m, err := tr.Recv(from)
	if err != nil {
		return Msg{}, fmt.Errorf("recv from party %d: %w", from, err)
	}
	if m.Round != round {
		return Msg{}, fmt.Errorf("party %d sent round %d inside round %d", from, m.Round, round)
	}
	return m, nil
}

// recvVector receives one logical vector from a peer, reassembling
// chunk-streamed fragments (Msg.More) in FIFO order. An unchunked
// message is the one-fragment case, so a receiver on this path accepts
// legacy and chunk-streaming senders alike. n bounds the reassembled
// length (the call sites still validate the exact final length, with
// their phase-specific error text).
func recvVector(tr Transport, from, round, n int) (Msg, error) {
	m, err := expectMsg(tr, from, round)
	if err != nil || !m.More {
		return m, err
	}
	switch m.Kind {
	case MsgPlain:
		words := make([]uint64, 0, n)
		m.Words = append(words, m.Words...)
	case MsgEnc:
		enc := make([]*ahe.Ciphertext, 0, n)
		m.Enc = append(enc, m.Enc...)
	default:
		return Msg{}, fmt.Errorf("party %d chunk-streamed kind %d", from, m.Kind)
	}
	m.More = false
	for {
		frag, err := expectMsg(tr, from, round)
		if err != nil {
			return Msg{}, err
		}
		if frag.Kind != m.Kind {
			return Msg{}, fmt.Errorf("party %d switched from kind %d to %d mid-stream", from, m.Kind, frag.Kind)
		}
		if m.Kind == MsgPlain {
			m.Words = append(m.Words, frag.Words...)
			if len(m.Words) > n {
				return Msg{}, fmt.Errorf("party %d streamed %d words, want at most %d", from, len(m.Words), n)
			}
		} else {
			m.Enc = append(m.Enc, frag.Enc...)
			if len(m.Enc) > n {
				return Msg{}, fmt.Errorf("party %d streamed %d ciphertexts, want at most %d", from, len(m.Enc), n)
			}
		}
		if !frag.More {
			return m, nil
		}
	}
}

// sendVector sends one logical plaintext vector, fragmented into
// chunk-sized windows when chunking is on (chunk > 0). A vector that
// fits one window — and every send with chunk <= 0 — goes out as a
// single legacy frame.
func sendVector(tr Transport, to, round, chunk int, words []uint64) error {
	if chunk <= 0 || len(words) <= chunk {
		return tr.Send(to, Msg{Kind: MsgPlain, Round: round, Words: words})
	}
	for lo := 0; lo < len(words); lo += chunk {
		hi := lo + chunk
		if hi > len(words) {
			hi = len(words)
		}
		if err := tr.Send(to, Msg{Kind: MsgPlain, Round: round, Words: words[lo:hi], More: hi < len(words)}); err != nil {
			return err
		}
	}
	return nil
}

// streamSplitEncrypted runs splitEncrypted window by window over the
// vector (chunk elements per window; <= 0 means one window) and hands
// each finished window to emit on a dedicated pipeline goroutine, so
// the AHE work on window k+1 overlaps the transmission of window k —
// the compute/transmit pipeline of the chunk-streamed wire. emit runs
// in window order on a single goroutine and receives the window's
// base offset, its plaintext parts and ciphertext remainder, and
// whether more windows follow. The deterministic Source draws happen
// in the same element order as one unchunked splitEncrypted, so the
// resulting shares are bit-identical at every chunk size. The
// returned channel yields the first error once both the compute and
// emit sides have finished.
func streamSplitEncrypted(enc []*ahe.Ciphertext, k, chunk int, icfg Config, emit func(lo int, parts [][]uint64, rem []*ahe.Ciphertext, more bool) error) <-chan error {
	out := make(chan error, 1)
	n := len(enc)
	if chunk <= 0 || chunk >= n {
		go func() {
			parts, rem, err := splitEncrypted(enc, k, icfg)
			if err != nil {
				out <- err
				return
			}
			out <- emit(0, parts, rem, false)
		}()
		return out
	}
	type window struct {
		lo    int
		parts [][]uint64
		rem   []*ahe.Ciphertext
		more  bool
	}
	// Capacity 1: one window may be computed while one is on the wire.
	windows := make(chan window, 1)
	emitErr := make(chan error, 1)
	go func() {
		for w := range windows {
			if err := emit(w.lo, w.parts, w.rem, w.more); err != nil {
				emitErr <- err
				// Drain so the compute side never blocks on a dead pipe.
				for range windows {
				}
				return
			}
		}
		emitErr <- nil
	}()
	go func() {
		var failed error
		for lo := 0; lo < n && failed == nil; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			parts, rem, err := splitEncrypted(enc[lo:hi], k, icfg)
			if err != nil {
				failed = err
				break
			}
			windows <- window{lo: lo, parts: parts, rem: rem, more: hi < n}
		}
		close(windows)
		if err := <-emitErr; failed == nil {
			failed = err
		}
		out <- failed
	}()
	return out
}

func runPartyRound(cfg PartyConfig, icfg Config, tr Transport, round int, hiders []int, n int, plain []uint64, enc []*ahe.Ciphertext) ([]uint64, []*ahe.Ciphertext, error) {
	r, t, me := cfg.Parties, len(hiders), cfg.Index
	isHider := make([]bool, r)
	for _, h := range hiders {
		isHider[h] = true
	}

	// --- Hide phase. ---
	announce(tr, round, PhaseHide)
	var acc []uint64             // my accumulated plaintext mass (hiders only)
	var encAcc []*ahe.Ciphertext // the ciphertext vector, if I hold it
	if isHider[me] {
		if enc != nil {
			acc = make([]uint64, n)
			encAcc = enc
		} else {
			acc = append([]uint64(nil), plain...)
		}
		recvHide := func() error {
			for s := 0; s < r; s++ {
				if isHider[s] {
					continue
				}
				m, err := recvVector(tr, s, round, n)
				if err != nil {
					return err
				}
				switch m.Kind {
				case MsgPlain:
					if len(m.Words) != n {
						return fmt.Errorf("party %d hide part has length %d, want %d", s, len(m.Words), n)
					}
					addInto(acc, m.Words, cfg.Mod)
				case MsgEnc:
					if encAcc != nil {
						return fmt.Errorf("party %d sent a second ciphertext vector", s)
					}
					if len(m.Enc) != n {
						return fmt.Errorf("party %d ciphertext vector has length %d, want %d", s, len(m.Enc), n)
					}
					encAcc = m.Enc
				default:
					return fmt.Errorf("party %d sent kind %d in the hide phase", s, m.Kind)
				}
			}
			return nil
		}
		if err := recvHide(); err != nil {
			return nil, nil, err
		}
		// Fold accumulated plaintext mass into the ciphertext vector so
		// this hider holds exactly one vector (Figure 2, "Hide").
		if encAcc != nil {
			if err := addPlainAll(encAcc, acc, cfg.Mod, cfg.Pub); err != nil {
				return nil, nil, err
			}
			acc = nil
		}
	} else {
		// Seeker: split and send everything away. The encrypted seeker
		// chunk-streams: each window's AHE split goes onto the wire
		// while the next window computes.
		var sendErr <-chan error
		if enc != nil {
			target := hiders[rng.New(cfg.Source.Uint64()).Intn(t)]
			sendErr = streamSplitEncrypted(enc, t, cfg.ChunkWords, icfg, func(_ int, parts [][]uint64, rem []*ahe.Ciphertext, more bool) error {
				pi := 0
				for _, h := range hiders {
					if h == target {
						continue
					}
					if err := tr.Send(h, Msg{Kind: MsgPlain, Round: round, Words: parts[pi], More: more}); err != nil {
						return err
					}
					pi++
				}
				return tr.Send(target, Msg{Kind: MsgEnc, Round: round, Enc: rem, More: more})
			})
		} else {
			parts := splitPlain(plain, t, icfg)
			sendErr = sendAll(func() error {
				for i, h := range hiders {
					if err := sendVector(tr, h, round, cfg.ChunkWords, parts[i]); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := <-sendErr; err != nil {
			return nil, nil, err
		}
	}

	// --- Shuffle phase (hiders only). ---
	announce(tr, round, PhaseShuffle)
	if isHider[me] {
		var seed uint64
		if me == hiders[0] {
			seed = cfg.Source.Uint64()
			sendErr := sendAll(func() error {
				for _, h := range hiders[1:] {
					if err := tr.Send(h, Msg{Kind: MsgSeed, Round: round, Seed: seed}); err != nil {
						return err
					}
				}
				return nil
			})
			if err := <-sendErr; err != nil {
				return nil, nil, err
			}
		} else {
			m, err := expectMsg(tr, hiders[0], round)
			if err != nil {
				return nil, nil, err
			}
			if m.Kind != MsgSeed {
				return nil, nil, fmt.Errorf("lead hider %d sent kind %d, want the permutation seed", hiders[0], m.Kind)
			}
			seed = m.Seed
		}
		perm := rng.New(seed).Perm(n)
		if acc != nil {
			acc = applyPermUint64(acc, perm)
		} else {
			encAcc = applyPermCipher(encAcc, perm)
			if !cfg.SkipRerandomize {
				if err := rerandomizeAll(encAcc, cfg.Pub); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// --- Reshare phase. ---
	announce(tr, round, PhaseReshare)
	// My new vector starts from the parts I keep for myself. The
	// ciphertext hider's kept pieces land in keep/keepEnc on the
	// pipeline goroutine and merge after the send join — the receive
	// loop below runs concurrently with the chunk stream and must not
	// share newPlain with it.
	newPlain := make([]uint64, n)
	var newEnc []*ahe.Ciphertext
	var keep []uint64
	var keepEnc []*ahe.Ciphertext
	var sendErr <-chan error
	if isHider[me] {
		if acc != nil {
			parts := splitPlain(acc, r, icfg)
			copy(newPlain, parts[me])
			sendErr = sendAll(func() error {
				for j := 0; j < r; j++ {
					if j == me {
						continue
					}
					if err := sendVector(tr, j, round, cfg.ChunkWords, parts[j]); err != nil {
						return err
					}
				}
				return nil
			})
		} else {
			target := rng.New(cfg.Source.Uint64() ^ 0x5bd1e995).Intn(r)
			keep = make([]uint64, n)
			// parts[pi] walks the non-target parties in index order,
			// mirroring the simulator's distribution; each window's
			// sends go out while the next window computes.
			sendErr = streamSplitEncrypted(encAcc, r, cfg.ChunkWords, icfg, func(lo int, parts [][]uint64, rem []*ahe.Ciphertext, more bool) error {
				pi := 0
				for j := 0; j < r; j++ {
					if j == target {
						continue
					}
					if j == me {
						copy(keep[lo:lo+len(rem)], parts[pi])
					} else if err := tr.Send(j, Msg{Kind: MsgPlain, Round: round, Words: parts[pi], More: more}); err != nil {
						return err
					}
					pi++
				}
				if target == me {
					keepEnc = append(keepEnc, rem...)
					return nil
				}
				return tr.Send(target, Msg{Kind: MsgEnc, Round: round, Enc: rem, More: more})
			})
		}
	}
	for _, h := range hiders {
		if h == me {
			continue
		}
		m, err := recvVector(tr, h, round, n)
		if err != nil {
			return nil, nil, err
		}
		switch m.Kind {
		case MsgPlain:
			if len(m.Words) != n {
				return nil, nil, fmt.Errorf("party %d reshare part has length %d, want %d", h, len(m.Words), n)
			}
			addInto(newPlain, m.Words, cfg.Mod)
		case MsgEnc:
			if newEnc != nil {
				return nil, nil, fmt.Errorf("party %d sent a second ciphertext remainder", h)
			}
			if len(m.Enc) != n {
				return nil, nil, fmt.Errorf("party %d ciphertext remainder has length %d, want %d", h, len(m.Enc), n)
			}
			newEnc = m.Enc
		default:
			return nil, nil, fmt.Errorf("party %d sent kind %d in the reshare phase", h, m.Kind)
		}
	}
	if sendErr != nil {
		if err := <-sendErr; err != nil {
			return nil, nil, err
		}
	}
	// Merge the ciphertext hider's kept pieces (written by the pipeline
	// goroutine, published by the sendErr join). Addition commutes mod
	// 2^l, so folding them after the received parts is bit-identical to
	// the serial engine's copy-then-accumulate order.
	if keep != nil {
		addInto(newPlain, keep, cfg.Mod)
	}
	if keepEnc != nil {
		if newEnc != nil {
			return nil, nil, errors.New("kept and received a ciphertext remainder in one round")
		}
		newEnc = keepEnc
	}

	// The new ciphertext holder folds its plaintext reshare mass into
	// the ciphertext vector so every party exits the round holding
	// exactly one vector.
	if newEnc != nil {
		if err := addPlainAll(newEnc, newPlain, cfg.Mod, cfg.Pub); err != nil {
			return nil, nil, err
		}
		return nil, newEnc, nil
	}
	return newPlain, nil, nil
}
