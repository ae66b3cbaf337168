package oblivious

// The EOS engine: the hide-and-seek shuffle executed from the
// perspective of ONE shuffler exchanging messages with its peers.
// runPartyRound is the package's only implementation of a round. Run
// starts r of these engines over an in-memory transport; internal/cluster
// runs one per node over real TCP connections to form the networked
// PEOS shuffler tier. What the engine fixes is the message discipline —
// who sends what to whom in each phase, and in which order a party may
// block on its peers.
//
// Per round (hider set H, |H| = t, seekers S = [r] \ H):
//
//	hide     seeker s splits its vector into t parts, one per hider
//	         (the encrypted seeker: its ciphertexts go to one hider
//	         with the last part). Hiders accumulate.
//	shuffle  hiders[0] samples a permutation seed and sends it to the
//	         other hiders; every hider applies the permutation.
//	reshare  each hider splits its vector into r parts, one per party
//	         (the ciphertext hider: its ciphertexts go with the last
//	         part to one party, who becomes the next holder).
//	         Every party sums what it received into its new vector.
//
// The ciphertext follows the hiders (DESIGN.md §14): the rounds walk
// the t-subsets in reverse lexicographic order, so the seated holder
// (shuffler r-1 in PEOS) hides in round 0, and a reshare deals the
// ciphertexts to a party that hides in the next round — the PEOS holder
// never seeks, a holder seated elsewhere seeks in round 0 only, and a
// shuffle's ciphertext work is a function of r alone (who holds the
// vector was never a secret).
//
// The ciphertext vector pays for its departures, nothing else. The
// holder's share is a pair: its ciphertexts and the plaintext mass it
// owes them (value_i = Dec(enc_i) + owed_i). It is split like every
// other share — the owed vector into additive parts, the last of which
// goes with the ciphertexts — so a split never touches a ciphertext.
// The one ciphertext step is a departure: when the vector leaves the
// party — sent to a peer, or on its way to the analyzer after the last
// round — the owed mass is folded in and every element refreshed
// (multiplied by a fresh h^r), once each, into fresh ciphertexts. A
// holder that deals the vector back to itself, between two of its own
// permutations where nobody it does not already collude with can see
// it, pays nothing.
//
// Every vector travels as one message. Message counts per phase are
// structural — a hider hears from every seeker, a non-lead hider hears
// one seed, everyone hears from every hider in reshare — so a party
// always knows exactly which peers to block on, and FIFO order per
// peer pair is the only transport guarantee required. Each phase's
// sends run concurrently with its receives (two parties sending large
// vectors to each other must not deadlock on full transport buffers).

import (
	"errors"
	"fmt"
	"slices"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
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
	// Words is the plaintext share vector (MsgPlain). Beside Enc it is
	// the mass owed to the ciphertexts; only the part a holder deals
	// itself carries one, since a departure folds it in.
	Words []uint64
	// Enc is the ciphertext vector (MsgEnc).
	Enc []*ahe.Ciphertext
	// Seed is the joint permutation seed (MsgSeed).
	Seed uint64
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

// PartyConfig parameterizes one shuffler's engine: the shuffle's
// Config, read from this party's seat. Source is the party's OWN
// randomness (its share splits, its permutation seeds when it leads a
// round); Pub may be nil for a plain shuffle, but the ciphertext vector
// moves between parties through resharing, so every party of an
// encrypted shuffle needs it; Meter accounts this party's sends and its
// ciphertext work.
type PartyConfig struct {
	Config
	// Index is this party's id in [0, Parties).
	Index int
	// Parties is r, the number of shufflers.
	Parties int
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
	if plain != nil && enc != nil {
		return errors.New("oblivious: a party holds a plaintext or a ciphertext vector, not both")
	}
	if plain == nil && enc == nil {
		return errors.New("oblivious: party holds no vector")
	}
	if enc != nil && cfg.Pub == nil {
		return errors.New("oblivious: a ciphertext vector requires the AHE public key")
	}
	return nil
}

// RunParty executes the encrypted oblivious shuffle for one party.
// plain is this party's share vector, or nil when it enters holding
// the ciphertext vector enc (at most one party of the run does). It
// returns the party's post-shuffle vector: plain shares for most
// parties, the ciphertext vector for the final holder. It writes into
// neither input: a vector that leaves a party is made of fresh
// ciphertexts.
func RunParty(cfg PartyConfig, tr Transport, plain []uint64, enc []*ahe.Ciphertext) ([]uint64, []*ahe.Ciphertext, error) {
	if err := cfg.validate(plain, enc); err != nil {
		return nil, nil, err
	}
	// One round per way of choosing the hiders: all C(r, t) of them, the
	// number the security argument needs — last subset first, so that
	// round 0's hiders {r-t, ..., r-1} seat the PEOS holder r-1.
	partitions := Combinations(cfg.Parties, Hiders(cfg.Parties))
	slices.Reverse(partitions)
	sh := share{words: plain, enc: enc}
	if enc != nil {
		sh.words = make([]uint64, len(enc)) // the seated holder owes nothing
	}
	for round, hiders := range partitions {
		var next []int // none after the last round: the holder's vector exits
		if round+1 < len(partitions) {
			next = partitions[round+1]
		}
		var err error
		if sh, err = runPartyRound(cfg, tr, round, hiders, next, sh); err != nil {
			return nil, nil, fmt.Errorf("oblivious: party %d round %d: %w", cfg.Index, round, err)
		}
	}
	if sh.enc == nil {
		return sh.words, nil, nil
	}
	// The final holder's exit towards the analyzer is a departure too.
	out, err := depart(cfg, sh)
	if err != nil {
		return nil, nil, fmt.Errorf("oblivious: party %d exit: %w", cfg.Index, err)
	}
	return nil, out, nil
}

// depart is the shuffle's one ciphertext step, taken when the holder's
// vector leaves the party: each worker folds its window of the vector
// in one FoldChunk — the owed mass into each element, times a fresh h^r
// unless cfg.SkipRerandomize: the refresh that unlinks positions across
// every permutation this party applied since the vector arrived. It
// writes fresh ciphertexts, so the vector it was given stays as it was.
// There is no Source draw here (the refresh's randomness is
// crypto/rand), so the work fans out over the cores; it is billed as
// this shuffler's computation.
func depart(cfg PartyConfig, sh share) ([]*ahe.Ciphertext, error) {
	out := make([]*ahe.Ciphertext, len(sh.enc))
	var err error
	cfg.Meter.Track(shufflerName(cfg.Index), func() {
		err = parFor(len(out), fanOut(), func(_, lo, hi int) error {
			return cfg.Pub.FoldChunk(out[lo:hi], sh.enc[lo:hi], sh.words[lo:hi], !cfg.SkipRerandomize, cfg.Pub.NewScratch())
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sendAll sends out[j] to every party j it holds a message for (the
// zero Msg means none), accounting each one's Table III payload bytes
// (8 per share word, CiphertextBytes per ciphertext, 32 per seed). It
// runs on its own goroutine so a phase's sends never block its
// receives; the returned channel yields the first send error.
func sendAll(cfg PartyConfig, tr Transport, out []Msg) <-chan error {
	errc := make(chan error, 1)
	go func() {
		for to, m := range out {
			var bytes int
			switch m.Kind {
			case MsgPlain:
				bytes = 8 * len(m.Words)
			case MsgEnc:
				bytes = cfg.Pub.CiphertextBytes() * len(m.Enc)
			case MsgSeed:
				bytes = 32
			default:
				continue
			}
			if err := tr.Send(to, m); err != nil {
				errc <- err
				return
			}
			cfg.Meter.Send(shufflerName(cfg.Index), shufflerName(to), bytes)
		}
		errc <- nil
	}()
	return errc
}

// expectMsg receives the next message from a peer and validates the
// round; share.add validates the kind, since a receiver cannot know in
// advance whether a peer forwards plaintext or the ciphertext
// vector.
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

// heir names the next ciphertext holder among the candidates — a rule,
// not a draw: the current holder when it is one of them, else the first.
func heir(me int, among []int) int {
	if slices.Contains(among, me) {
		return me
	}
	return among[0]
}

// splitFor splits this party's share into one message per party in
// dests (the returned slice is indexed by party; the rest stay zero):
// len(dests) additive parts of its plaintext vector, walking dests in
// order. The holder's owed vector splits the same way, but its last
// part goes with the ciphertexts to target, the next holder — kept as
// it is when that is this party, folded in by a departure otherwise.
func splitFor(cfg PartyConfig, round int, dests []int, target int, sh share) ([]Msg, error) {
	out := make([]Msg, cfg.Parties)
	parts := splitPlain(sh.words, len(dests), cfg.Config)
	if sh.enc == nil {
		for i, part := range parts {
			out[dests[i]] = Msg{Kind: MsgPlain, Round: round, Words: part}
		}
		return out, nil
	}
	rem := share{words: parts[len(parts)-1], enc: sh.enc}
	pi := 0
	for _, d := range dests {
		if d != target {
			out[d] = Msg{Kind: MsgPlain, Round: round, Words: parts[pi]}
			pi++
		}
	}
	if target == cfg.Index {
		out[target] = Msg{Kind: MsgEnc, Round: round, Enc: rem.enc, Words: rem.words}
		return out, nil
	}
	enc, err := depart(cfg, rem)
	if err != nil {
		return nil, err
	}
	out[target] = Msg{Kind: MsgEnc, Round: round, Enc: enc}
	return out, nil
}

// share is one party's additive share of the vector: plaintext words,
// or for the holder the ciphertexts plus the mass words owed to them.
// During a phase it accumulates what the party takes in: plaintext
// parts sum into words, and at most one ciphertext vector may arrive.
type share struct {
	words []uint64
	enc   []*ahe.Ciphertext
}

// add validates one vector message and absorbs it: a plaintext part,
// or the ciphertext vector — with the owed part beside it when a holder
// deals the vector to itself; a vector that departed carries none.
func (in *share) add(cfg PartyConfig, from int, m Msg) error {
	n := len(in.words)
	switch m.Kind {
	case MsgPlain:
	case MsgEnc:
		if cfg.Pub == nil {
			return fmt.Errorf("party %d sent a ciphertext vector to a party without the AHE key", from)
		}
		if in.enc != nil {
			return fmt.Errorf("party %d sent a second ciphertext vector", from)
		}
		if len(m.Enc) != n {
			return fmt.Errorf("party %d ciphertext vector has length %d, want %d", from, len(m.Enc), n)
		}
		in.enc = m.Enc
		if m.Words == nil {
			return nil
		}
	default:
		return fmt.Errorf("party %d sent kind %d, want a share vector", from, m.Kind)
	}
	if len(m.Words) != n {
		return fmt.Errorf("party %d sent a part of length %d, want %d", from, len(m.Words), n)
	}
	addInto(in.words, m.Words, cfg.Mod)
	return nil
}

// runPartyRound performs one hide-and-seek round with the given hider
// set and returns the party's share after it; next is the hider set the
// round's reshare picks the ciphertext holder from, nil after the last
// round.
func runPartyRound(cfg PartyConfig, tr Transport, round int, hiders, next []int, sh share) (share, error) {
	r, me := cfg.Parties, cfg.Index
	n := len(sh.words)
	everyone := make([]int, r)
	for j := range everyone {
		everyone[j] = j
	}
	hides := slices.Contains(hiders, me)

	// --- Hide phase: seekers split their vectors among the hiders. ---
	if !hides {
		// A seeking holder's vector always departs: its heir is a hider.
		out, err := splitFor(cfg, round, hiders, heir(me, hiders), sh)
		if err != nil {
			return share{}, err
		}
		if err := <-sendAll(cfg, tr, out); err != nil {
			return share{}, err
		}
	} else {
		// A copy: the input vector belongs to the caller.
		in := share{words: make([]uint64, n), enc: sh.enc}
		copy(in.words, sh.words)
		for s := 0; s < r; s++ {
			if slices.Contains(hiders, s) {
				continue
			}
			m, err := expectMsg(tr, s, round)
			if err != nil {
				return share{}, err
			}
			if err := in.add(cfg, s, m); err != nil {
				return share{}, err
			}
		}
		sh = in
	}

	// --- Shuffle phase: hiders apply an agreed permutation. ---
	// The lead hider samples it and the others learn it via a shared
	// seed.
	if hides {
		var seed uint64
		if me == hiders[0] {
			seed = cfg.Source.Uint64()
			out := make([]Msg, r)
			for _, h := range hiders[1:] {
				out[h] = Msg{Kind: MsgSeed, Round: round, Seed: seed}
			}
			if err := <-sendAll(cfg, tr, out); err != nil {
				return share{}, err
			}
		} else {
			m, err := expectMsg(tr, hiders[0], round)
			if err != nil {
				return share{}, err
			}
			if m.Kind != MsgSeed {
				return share{}, fmt.Errorf("lead hider %d sent kind %d, want the permutation seed", hiders[0], m.Kind)
			}
			seed = m.Seed
		}
		// Permuting moves pointers (and the holder's owed mass with them)
		// and refreshes nothing: the departure that sends the ciphertexts
		// off this party multiplies each by a fresh h^r — the refresh that
		// unlinks positions across every permutation applied here since
		// they arrived.
		perm := rng.New(seed).Perm(n)
		cfg.Meter.Track(shufflerName(me), func() {
			sh.words = applyPermUint64(sh.words, perm)
			if sh.enc != nil {
				sh.enc = applyPermCipher(sh.enc, perm)
			}
		})
	}

	// --- Reshare phase: each hider splits its vector to all parties. ---
	in := share{words: make([]uint64, n)}
	var sendErr <-chan error
	if hides {
		// After the last round the holder keeps the vector; RunParty
		// sends it on its way to the analyzer.
		target := me
		if next != nil {
			target = heir(me, next)
		}
		out, err := splitFor(cfg, round, everyone, target, sh)
		if err != nil {
			return share{}, err
		}
		// The part a hider deals itself never touches the transport.
		if err := in.add(cfg, me, out[me]); err != nil {
			return share{}, err
		}
		out[me] = Msg{}
		sendErr = sendAll(cfg, tr, out)
	}
	for _, h := range hiders {
		if h == me {
			continue
		}
		m, err := expectMsg(tr, h, round)
		if err != nil {
			return share{}, err
		}
		if err := in.add(cfg, h, m); err != nil {
			return share{}, err
		}
	}
	if sendErr != nil {
		if err := <-sendErr; err != nil {
			return share{}, err
		}
	}
	return in, nil
}
