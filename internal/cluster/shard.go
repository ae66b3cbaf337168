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
// Nothing a shard holds outlives the attempt it serves: a crashed shard
// is replaced by a blank NewAnalyzer at the same address, mid-round if
// need be, and the coordinator's retry re-runs the attempt against it.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

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

// shardAttempt is one in-flight window attempt on a shard node.
type shardAttempt struct {
	g      gen
	n      int
	cancel chan struct{}
	once   sync.Once
}

func (sa *shardAttempt) abort() { sa.once.Do(func() { close(sa.cancel) }) }

func (sa *shardAttempt) canceled() bool {
	select {
	case <-sa.cancel:
		return true
	default:
		return false
	}
}

// readChunks drains one shuffler data link into that shuffler's chunk
// slot (shard nodes only). Any malformed frame drops the link; the
// shuffler redials on its next forward.
func (a *Analyzer) readChunks(j int, conn net.Conn) {
	defer a.dropShuffler(j, conn)
	for {
		tag, payload, err := transport.ReadTaggedFrame(conn)
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
		if int(fg.col) >= a.collections && (a.curShard == nil || !fg.less(a.curShard.g)) {
			a.chunks[j] = c
		}
		a.stateMu.Unlock()
		select {
		case a.chunkMore <- struct{}{}:
		default:
		}
	}
}

// supersede advances the shard's done watermark to floor's collection
// and drops every chunk older than floor. Caller holds stateMu.
func (a *Analyzer) supersede(floor gen) {
	if int(floor.col) > a.collections {
		a.collections = int(floor.col)
	}
	for j := range a.chunks {
		if a.chunks[j].g.less(floor) {
			a.chunks[j] = chunk{}
		}
	}
}

// shardRun is a shard node's control loop: keep a live link to the
// coordinator and serve its seal/abort/done frames until Close. Link
// loss — including a coordinator restart — cancels the in-flight
// attempt and redials.
func (a *Analyzer) shardRun() {
	for {
		conn, err := a.connectCoordinator()
		if err != nil {
			return
		}
		a.serveCoordinator(conn)
		a.cancelShardAttempt()
		if a.isClosed() {
			return
		}
	}
}

// connectCoordinator dials shard 0, identifies this shard, and swaps
// the fresh link in.
func (a *Analyzer) connectCoordinator() (net.Conn, error) {
	conn, err := dialRetry(a.cfg.Dial, a.cfg.Topology.Coordinator(), a.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if err := writeShardHello(conn, a.cfg.Shard, a.cfg.Topology.A()); err != nil {
		conn.Close()
		return nil, err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		return nil, errors.New("cluster: analyzer closed")
	}
	old := a.coord
	a.coord = conn
	a.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return conn, nil
}

// serveCoordinator reads coordinator frames off one link until it
// drops or a frame is refused — a seal cut for another analyzer count
// included; either way the caller redials.
func (a *Analyzer) serveCoordinator(conn net.Conn) {
	for {
		tag, payload, err := transport.ReadTaggedFrame(conn)
		if err != nil {
			return
		}
		switch tag {
		case tagSeal:
			g, n, err := parseSealFrame(payload, a.cfg.Topology.A())
			if err != nil {
				return
			}
			a.startShardAttempt(g, n)
		case tagAbort:
			g, err := parseAbortFrame(payload)
			if err != nil {
				return
			}
			a.abortShardGen(g)
		case tagDone:
			col, err := parseDoneFrame(payload)
			if err != nil {
				return
			}
			a.stateMu.Lock()
			a.supersede(gen{col: col + 1})
			a.stateMu.Unlock()
		default:
			return
		}
	}
}

// startShardAttempt installs a new window attempt, superseding an
// older generation exactly like a shuffler's startAttempt. A seal for
// collection c also proves the coordinator sealed every collection
// below c, whether or not their done frames arrived.
func (a *Analyzer) startShardAttempt(g gen, n int) {
	a.stateMu.Lock()
	prev := a.curShard
	if int(g.col) < a.collections || (prev != nil && !prev.g.less(g)) {
		a.stateMu.Unlock()
		return // stale control traffic
	}
	cur := &shardAttempt{g: g, n: n, cancel: make(chan struct{})}
	a.curShard = cur
	a.supersede(g)
	a.stateMu.Unlock()
	if prev != nil {
		prev.abort()
	}
	go a.runShardAttempt(cur)
}

// abortShardGen cancels the current window attempt if it matches g.
func (a *Analyzer) abortShardGen(g gen) {
	a.stateMu.Lock()
	cur := a.curShard
	a.stateMu.Unlock()
	if cur != nil && cur.g == g {
		cur.abort()
	}
}

// cancelShardAttempt aborts whatever window attempt is in flight.
func (a *Analyzer) cancelShardAttempt() {
	a.stateMu.Lock()
	cur := a.curShard
	a.stateMu.Unlock()
	if cur != nil {
		cur.abort()
	}
}

// runShardAttempt reveals the attempt's window and returns the words
// to the coordinator. A live failure is reported with a fail frame so
// the coordinator's Collect retries with the cause; a canceled attempt
// dies silently.
func (a *Analyzer) runShardAttempt(sa *shardAttempt) {
	words, err := a.revealWindow(sa)
	if sa.canceled() || a.isClosed() {
		return
	}
	tag, body := tagShardWords, transport.EncodeUint64s(words)
	if err != nil {
		tag, body = tagFail, []byte(err.Error())
	}
	_ = a.writeCoord(tag, prefixed(sa.g, body)) // a lost link fails the attempt at the coordinator
}

// revealWindow waits until every shuffler's slot carries the attempt's
// chunk and reveals the window (share sum + parallel decryption).
func (a *Analyzer) revealWindow(sa *shardAttempt) ([]uint64, error) {
	r := a.cfg.Topology.R()
	cuts := evenCuts(sa.n+a.cfg.NR, a.cfg.Topology.A())
	want := cuts[a.cfg.Shard+1] - cuts[a.cfg.Shard]
	var deadline <-chan time.Time
	if a.cfg.CollectTimeout > 0 {
		t := time.NewTimer(a.cfg.CollectTimeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		a.stateMu.Lock()
		mine := make([]chunk, 0, r)
		for _, c := range a.chunks {
			if c.tag != 0 && c.g == sa.g {
				mine = append(mine, c)
			}
		}
		a.stateMu.Unlock()
		if len(mine) == r { // every slot matched, so mine is indexed by shuffler
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
					return nil, fmt.Errorf("%w: conflicting chunk kinds for attempt %d/%d", errBadFrame, sa.g.col, sa.g.att)
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
		if a.isClosed() {
			return nil, errors.New("cluster: analyzer closed")
		}
		select {
		case <-a.chunkMore:
		case <-sa.cancel:
			return nil, errAttemptAborted
		case <-deadline:
			return nil, fmt.Errorf("cluster: shard %d received %d of %d chunks for collection %d", a.cfg.Shard, len(mine), r, sa.g.col)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// writeCoord writes one frame to the coordinator link under the write
// mutex and a deadline.
func (a *Analyzer) writeCoord(tag uint32, payload []byte) error {
	a.mu.Lock()
	conn := a.coord
	a.mu.Unlock()
	if conn == nil {
		return errors.New("cluster: no coordinator link")
	}
	a.coordWMu.Lock()
	defer a.coordWMu.Unlock()
	if a.cfg.CollectTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(a.cfg.CollectTimeout)); err != nil {
			return err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	return transport.WriteTaggedFrame(conn, tag, payload)
}

// awaitShardWords reads shard s's revealed window for attempt g on the
// coordinator's end of the link, skipping stale frames from aborted
// attempts.
func (a *Analyzer) awaitShardWords(conn net.Conn, s int, g gen, want int) ([]uint64, error) {
	for {
		if a.cfg.CollectTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(a.cfg.CollectTimeout)); err != nil {
				return nil, err
			}
		}
		tag, payload, err := transport.ReadTaggedFrame(conn)
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
