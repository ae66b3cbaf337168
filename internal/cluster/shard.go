package cluster

// The sharded analyzer tier (DESIGN.md §13). Shard 0 — the
// coordinator — IS the single analyzer: it drives rounds, reassembles
// every round's complete word vector, and is the only node that logs,
// counts, charges a ledger or serves estimates, so its WAL, checkpoint
// and recovery are a single analyzer's. Shards >= 1 are stateless
// reveal workers wired up by this file:
//
//	hello  the shard dials the coordinator and names its index and the
//	       analyzer count it was configured with (refused on mismatch);
//	       shufflers dial the shard's listener with ordinary shuffler
//	       hellos and stream post-shuffle chunk frames
//	seal   the coordinator opens collection attempt g over n users — the
//	       frame the shufflers get; the shard awaits its even cut's chunk
//	       from every shuffler, reveals it (RevealParallel over the
//	       window) and answers shardWords
//	done   best-effort: the coordinator sealed the collection durably,
//	       so its chunks can go
//
// Taking those orders is the follower's job (follower.go), the same one
// a shuffler runs; this file keeps what is a shard's own — the chunk
// slots, the window reveal, and the policy that a shard outlives any
// coordinator link. Nothing a shard holds outlives the attempt it
// serves: a crashed shard is replaced by a blank NewAnalyzer at the same
// address, mid-round if need be, and the coordinator's retry re-runs the
// attempt against it.

import (
	"cmp"
	"errors"
	"fmt"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/transport"
)

var errShardPassive = errors.New("cluster: shard analyzers are passive; call Collect on the coordinator (shard 0)")

// chunk is the newest post-shuffle window one shuffler's data link
// delivered, stamped with the attempt it belongs to. A shard holds one
// per shuffler and nothing else, so no link — a retrying round's, or a
// hostile one inventing generations — can make it hold more than R.
type chunk struct {
	tag   uint32 // tagVector or tagEncVector; 0 marks an empty slot
	g     gen
	plain []uint64
	enc   []*ahe.Ciphertext
}

// prepareShard gives a shard node its chunk slots and its follower.
func (a *Analyzer) prepareShard() {
	cfg := a.cfg
	a.chunks = make([]chunk, cfg.Topology.R())
	a.chunkMore = make(chan struct{}, 1)
	a.f = &follower{
		mu:          &a.stateMu,
		dial:        cfg.Dial,
		coordinator: cfg.Topology.Coordinator(),
		dialTimeout: cmp.Or(cfg.dialTimeout, defaultDialTimeout),
		timeout:     cfg.CollectTimeout,
		analyzers:   cfg.Topology.A(),
		helloTag:    tagShardHello,
		hello:       shardHelloPayload(cfg.Shard, cfg.Topology.A()),
		prune:       a.pruneChunks,
		work:        a.serveWindow,
		doneThrough: -1,
	}
}

// readChunks drains one shuffler data link into that shuffler's chunk
// slot (shard nodes only). Any malformed frame drops the link; the
// shuffler redials on its next forward. A chunk may beat its own seal,
// so the reader cannot wait to learn the round's n: it admits the
// window of the largest round a shuffler buffers (defaultMaxBuffered
// reports) and refuses a longer prefix unread.
func (a *Analyzer) readChunks(j int, l *link) {
	defer a.drop(j, l)
	cuts := evenCuts(defaultMaxBuffered+a.cfg.NR, a.cfg.Topology.A())
	limit := vectorFrameLimit(a.cfg.Priv, cuts[a.cfg.Shard+1]-cuts[a.cfg.Shard])
	for {
		tag, payload, err := l.recv(limit, 0)
		if err != nil {
			return
		}
		fg, body, err := splitPrefixed(payload)
		if err != nil {
			return
		}
		// Decode outside the lock; ciphertext deserialization is the
		// expensive part.
		c := chunk{tag: tag, g: fg}
		switch tag {
		case tagVector:
			c.plain, err = transport.DecodeUint64s(body)
		case tagEncVector:
			c.enc, err = decodeCiphertexts(ahe.PublicKey(a.cfg.Priv), body)
		default:
			return
		}
		if err != nil {
			return
		}
		// The newest frame wins the slot, unless it is stale: for a
		// collection already sealed, or for an attempt older than the
		// one the shard is armed for (an aborted attempt's late chunk
		// must not displace its successor's). A chunk that beats its
		// own seal is kept; junk is overwritten by the next honest one.
		a.stateMu.Lock()
		if !a.f.behind(fg) {
			a.chunks[j] = c
		}
		a.stateMu.Unlock()
		select {
		case a.chunkMore <- struct{}{}:
		default:
		}
	}
}

// pruneChunks is the follower's hook: drop every chunk older than
// floor. Caller holds stateMu.
func (a *Analyzer) pruneChunks(floor gen) {
	for j := range a.chunks {
		if a.chunks[j].g.less(floor) {
			a.chunks[j] = chunk{}
		}
	}
}

// shardRun is a shard node's policy loop. A shard holds nothing a
// coordinator restart could orphan, so no link event ends it: EOF, a
// reset, a refused frame and a coordinator that stays down past the
// dial budget all mean "cancel the attempt in flight and redial", until
// Close.
func (a *Analyzer) shardRun() {
	for !a.f.isClosed() {
		if l, err := a.f.connect(); err == nil {
			_ = a.f.serve(l)
			a.f.cancelCurrent()
		}
	}
}

// serveWindow is a shard's attempt: reveal the window and return the
// words to the coordinator. A lost link fails the attempt at the
// coordinator.
func (a *Analyzer) serveWindow(at *attempt) error {
	words, err := a.revealWindow(at)
	if err != nil {
		return err
	}
	if at.canceled() {
		return errAttemptAborted
	}
	return a.f.send(tagShardWords, prefixed(at.g, transport.EncodeUint64s(words)))
}

// revealWindow waits until every shuffler's slot carries the attempt's
// chunk and reveals the window (share sum + parallel decryption).
func (a *Analyzer) revealWindow(at *attempt) ([]uint64, error) {
	r := a.cfg.Topology.R()
	cuts := evenCuts(at.n+a.cfg.NR, a.cfg.Topology.A())
	want := cuts[a.cfg.Shard+1] - cuts[a.cfg.Shard]
	var mine []chunk
	err := await(func() (bool, error) {
		a.stateMu.Lock()
		defer a.stateMu.Unlock()
		if a.f.closed {
			return false, errNodeClosed
		}
		mine = mine[:0]
		for _, c := range a.chunks {
			if c.tag != 0 && c.g == at.g {
				mine = append(mine, c)
			}
		}
		return len(mine) == r, nil // every slot matched, so mine is indexed by shuffler
	}, a.chunkMore, at.cancel, a.cfg.CollectTimeout)
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("cluster: shard %d received %d of %d chunks for collection %d", a.cfg.Shard, len(mine), r, at.g.col)
	}
	if err != nil {
		return nil, err
	}
	st := &oblivious.State{Plain: make([][]uint64, r), EncHolder: -1}
	for j, c := range mine {
		if c.tag == tagVector {
			if len(c.plain) != want {
				return nil, fmt.Errorf("%w: shuffler %d chunk has %d words, want %d", errBadFrame, j, len(c.plain), want)
			}
			st.Plain[j] = c.plain
			continue
		}
		if st.EncHolder >= 0 {
			return nil, fmt.Errorf("%w: conflicting chunk kinds for attempt %d/%d", errBadFrame, at.g.col, at.g.att)
		}
		if len(c.enc) != want {
			return nil, fmt.Errorf("%w: shuffler %d ciphertext chunk has %d elements, want %d", errBadFrame, j, len(c.enc), want)
		}
		st.Enc, st.EncHolder = c.enc, j
	}
	if st.EncHolder < 0 {
		return nil, errors.New("cluster: no shuffler delivered the encrypted chunk")
	}
	return oblivious.RevealParallel(st, a.mod, a.cfg.Priv, 0)
}

// awaitShardWords reads shard s's revealed window for attempt g on the
// coordinator's end of the link, skipping stale frames from aborted
// attempts.
func (a *Analyzer) awaitShardWords(l *link, s int, g gen, want int) ([]uint64, error) {
	limit := vectorFrameLimit(a.cfg.Priv, want)
	for {
		tag, payload, err := l.recv(limit, a.cfg.CollectTimeout)
		if err != nil {
			return nil, fmt.Errorf("reading shard %d words: %w", s, err)
		}
		if tag != tagShardWords && tag != tagFail {
			return nil, fmt.Errorf("%w: shard %d sent tag %d, want words", errBadFrame, s, tag)
		}
		fg, body, err := splitPrefixed(payload)
		if err != nil {
			return nil, err
		}
		if fg != g {
			continue
		}
		if tag == tagFail {
			return nil, fmt.Errorf("analyzer shard %d failed: %s", s, body)
		}
		words, err := transport.DecodeUint64s(body)
		if err != nil {
			return nil, err
		}
		if len(words) != want {
			return nil, fmt.Errorf("%w: shard %d window has %d words, want %d", errBadFrame, s, len(words), want)
		}
		return words, nil
	}
}
