package cluster

// The sharded analyzer tier (DESIGN.md §13). Shard 0 — the
// coordinator — IS the legacy analyzer: it drives rounds, owns the
// full durable history (it reassembles every round's complete word
// vector, so its WAL, checkpoint, recovery, and estimate paths are
// byte-identical to a single analyzer's), and serves estimates. Shards
// >= 1 are passive window workers wired up by this file:
//
//	hello     the shard dials the coordinator and identifies itself
//	          with its index and partition plan (rejected on mismatch);
//	          shufflers dial the shard's listener with ordinary
//	          shuffler hellos and stream post-shuffle chunk frames
//	shardSeal the coordinator opens collection attempt g over n users;
//	          the shard awaits its cut window's chunk from every
//	          shuffler, reveals it (RevealParallel over the window),
//	          write-ahead logs the words WITHOUT a rotation marker (the
//	          PREPARE of the two-phase commit), and answers shardWords
//	shardCommit once the coordinator's own seal is durable (the commit
//	          point) each shard seals too: rotation marker, checkpoint,
//	          one ledger charge, counts folded — then acks
//
// A shard that crashes between prepare and commit heals at the next
// seal's watermark: a seal for collection c proves the coordinator
// committed every collection below c, so the shard commits its
// prepared windows below c before arming the new one. Recovery keeps
// marker-less WAL words pending for exactly this path. The healing is
// only as durable as the prepare — run shards with store.SyncAlways
// (or the default SyncBatch, whose prepare Commit also fsyncs) so a
// prepared window survives the crash.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/transport"
)

// preparedWindow is a shard's revealed-and-logged (but not yet
// committed) cut of one collection.
type preparedWindow struct {
	// att is the attempt that produced the words; a commit frame for a
	// different attempt of the collection is a protocol violation.
	att uint32
	// restored marks a window replayed from the WAL tail, whose attempt
	// number did not survive the crash: it commits only through the
	// seal watermark, never by a direct commit frame.
	restored bool
	words    []uint64
}

// chunkBuf holds the generation-stamped post-shuffle chunk frames a
// shard's shuffler data links have delivered, until the matching
// attempt collects them.
type chunkBuf struct {
	mu     sync.Mutex
	gens   map[gen]*genChunks
	notify chan struct{}
	done   int64 // commit watermark; chunks at or below are stale
}

// genChunks is one attempt's chunks, by source shuffler.
type genChunks struct {
	plain map[int][]uint64
	enc   map[int][]*ahe.Ciphertext
}

func newChunkBuf() *chunkBuf {
	return &chunkBuf{
		gens:   make(map[gen]*genChunks),
		notify: make(chan struct{}, 1),
		done:   -1,
	}
}

// prune drops every buffered chunk for collections at or below col.
func (b *chunkBuf) prune(col uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int64(col) > b.done {
		b.done = int64(col)
	}
	for g := range b.gens {
		if int64(g.col) <= b.done {
			delete(b.gens, g)
		}
	}
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

// errShardFatal wraps shard-side failures that redialing cannot fix
// (durable-store errors, a broken commit sequence): the shard control
// loop exits instead of reconnecting.
var errShardFatal = errors.New("cluster: fatal shard error")

// readChunks drains one shuffler data link into the chunk buffer
// (shard nodes only). Any malformed frame drops the link; the shuffler
// redials on its next forward.
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
		// Decode outside the buffer lock; ciphertext deserialization is
		// the expensive part.
		var words []uint64
		var cts []*ahe.Ciphertext
		switch tag {
		case tagVector:
			if words, err = transport.DecodeUint64s(body); err != nil {
				return
			}
		case tagEncVector:
			if cts, err = decodeCiphertexts(ahe.PublicKey(a.cfg.Priv), body); err != nil {
				return
			}
		default:
			return
		}
		b := a.chunks
		b.mu.Lock()
		if int64(fg.col) <= b.done {
			b.mu.Unlock()
			continue
		}
		gc := b.gens[fg]
		if gc == nil {
			gc = &genChunks{plain: make(map[int][]uint64), enc: make(map[int][]*ahe.Ciphertext)}
			b.gens[fg] = gc
		}
		if tag == tagVector {
			gc.plain[j] = words
		} else {
			gc.enc[j] = cts
		}
		b.mu.Unlock()
		select {
		case b.notify <- struct{}{}:
		default:
		}
	}
}

// shardRun is a shard node's control loop: keep a live link to the
// coordinator and serve its seal/abort/commit frames until Close (or a
// fatal error). Link loss — including a coordinator restart — cancels
// the in-flight attempt and redials; the prepared windows stay, ready
// for a commit or the seal-watermark healing.
func (a *Analyzer) shardRun() {
	for {
		conn, err := a.connectCoordinator()
		if err != nil {
			return
		}
		err = a.serveCoordinator(conn)
		a.cancelShardAttempt()
		if a.isClosed() || errors.Is(err, errShardFatal) {
			return
		}
	}
}

// connectCoordinator dials shard 0, identifies this shard (index +
// plan), and swaps the fresh link in.
func (a *Analyzer) connectCoordinator() (net.Conn, error) {
	conn, err := dialRetry(a.cfg.Dial, a.cfg.Topology.Coordinator(), a.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if err := writeShardHello(conn, a.cfg.Shard, a.plan); err != nil {
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
// drops or a frame fails.
func (a *Analyzer) serveCoordinator(conn net.Conn) error {
	for {
		tag, payload, err := transport.ReadTaggedFrame(conn)
		if err != nil {
			return err
		}
		switch tag {
		case tagShardSeal:
			g, n, err := parseShardSeal(payload)
			if err != nil {
				return err
			}
			// The seal proves every collection below g.col committed at
			// the coordinator: heal prepared windows the commit frame
			// never reached (crash or lost link in the commit window).
			if err := a.healThrough(g.col); err != nil {
				return fmt.Errorf("%w: %v", errShardFatal, err)
			}
			a.startShardAttempt(g, n)
		case tagAbort:
			g, err := parseAbortFrame(payload)
			if err != nil {
				return err
			}
			a.abortShardGen(g)
		case tagShardCommit:
			g, err := parseGenFrame(payload)
			if err != nil {
				return err
			}
			if err := a.commitWindow(g); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: coordinator sent tag %d", errBadFrame, tag)
		}
	}
}

// startShardAttempt installs a new window attempt, superseding an
// older generation exactly like a shuffler's startAttempt.
func (a *Analyzer) startShardAttempt(g gen, n int) {
	a.stateMu.Lock()
	sealed := a.collections
	a.stateMu.Unlock()
	if int(g.col) < sealed {
		return // stale seal for a window this shard already committed
	}
	a.mu.Lock()
	prev := a.curShard
	if prev != nil && !prev.g.less(g) {
		a.mu.Unlock()
		return
	}
	cur := &shardAttempt{g: g, n: n, cancel: make(chan struct{})}
	a.curShard = cur
	a.mu.Unlock()
	if prev != nil {
		prev.abort()
	}
	go a.runShardAttempt(cur)
}

// abortShardGen cancels the current window attempt if it matches g.
func (a *Analyzer) abortShardGen(g gen) {
	a.mu.Lock()
	cur := a.curShard
	a.mu.Unlock()
	if cur != nil && cur.g == g {
		cur.abort()
	}
}

// cancelShardAttempt aborts whatever window attempt is in flight.
func (a *Analyzer) cancelShardAttempt() {
	a.mu.Lock()
	cur := a.curShard
	a.mu.Unlock()
	if cur != nil {
		cur.abort()
	}
}

// runShardAttempt reveals the attempt's window, prepares it (WAL, no
// marker), and returns the words to the coordinator. A live failure is
// reported with a fail frame so the coordinator's Collect retries with
// the cause; a canceled attempt dies silently.
func (a *Analyzer) runShardAttempt(sa *shardAttempt) {
	words, err := a.revealWindow(sa)
	if err == nil {
		err = a.prepareWindow(sa, words)
	}
	if err != nil {
		if sa.canceled() || a.isClosed() {
			return
		}
		_ = a.writeCoord(func(w io.Writer) error {
			return transport.WriteTaggedFrame(w, tagFail, prefixed(sa.g, []byte(err.Error())))
		})
		return
	}
	_ = a.writeCoord(func(w io.Writer) error {
		return transport.WriteTaggedFrame(w, tagShardWords, prefixed(sa.g, transport.EncodeUint64s(words)))
	})
}

// revealWindow waits for the attempt's chunk from every shuffler and
// reveals the window (share sum + parallel decryption).
func (a *Analyzer) revealWindow(sa *shardAttempt) ([]uint64, error) {
	r := a.cfg.Topology.R()
	cuts := a.plan.Cuts(sa.n + a.cfg.NR)
	want := cuts[a.cfg.Shard+1] - cuts[a.cfg.Shard]
	var deadline <-chan time.Time
	if a.cfg.CollectTimeout > 0 {
		t := time.NewTimer(a.cfg.CollectTimeout)
		defer t.Stop()
		deadline = t.C
	}
	b := a.chunks
	for {
		b.mu.Lock()
		gc := b.gens[sa.g]
		have := 0
		if gc != nil {
			have = len(gc.plain) + len(gc.enc)
		}
		if have >= r {
			st := &oblivious.State{Plain: make([][]uint64, r), EncHolder: -1}
			for j, ws := range gc.plain {
				if len(ws) != want {
					b.mu.Unlock()
					return nil, fmt.Errorf("%w: shuffler %d chunk has %d words, want %d", errBadFrame, j, len(ws), want)
				}
				st.Plain[j] = ws
			}
			for j, cts := range gc.enc {
				if st.EncHolder >= 0 || st.Plain[j] != nil {
					b.mu.Unlock()
					return nil, fmt.Errorf("%w: conflicting chunk kinds for attempt %d/%d", errBadFrame, sa.g.col, sa.g.att)
				}
				if len(cts) != want {
					b.mu.Unlock()
					return nil, fmt.Errorf("%w: shuffler %d ciphertext chunk has %d elements, want %d", errBadFrame, j, len(cts), want)
				}
				st.Enc = cts
				st.EncHolder = j
			}
			b.mu.Unlock()
			if st.EncHolder < 0 {
				return nil, errors.New("cluster: no shuffler delivered the encrypted chunk")
			}
			return oblivious.RevealParallel(st, a.mod, a.cfg.Priv, 0)
		}
		b.mu.Unlock()
		if a.isClosed() {
			return nil, errors.New("cluster: analyzer closed")
		}
		select {
		case <-b.notify:
		case <-sa.cancel:
			return nil, errAttemptAborted
		case <-deadline:
			return nil, fmt.Errorf("cluster: shard %d received %d of %d chunks for collection %d", a.cfg.Shard, have, r, sa.g.col)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// prepareWindow write-ahead logs the revealed words withOUT a rotation
// marker — the prepare of the two-phase commit — and files them for
// the coordinator's commit.
func (a *Analyzer) prepareWindow(sa *shardAttempt, words []uint64) error {
	if sa.canceled() {
		return errAttemptAborted
	}
	if a.st != nil {
		if err := a.st.AppendReport(sa.g.col, transport.EncodeUint64s(words)); err != nil {
			return err
		}
		if err := a.st.Commit(); err != nil {
			return err
		}
	}
	a.mu.Lock()
	// A superseded attempt that limped through its reveal must not
	// clobber its successor's prepared window (the WAL record it wrote
	// is harmless: last record wins, and only the current attempt's
	// window is offered for commit).
	if a.curShard != sa {
		a.mu.Unlock()
		return errAttemptAborted
	}
	a.preparedW[sa.g.col] = &preparedWindow{att: sa.g.att, words: words}
	a.mu.Unlock()
	return nil
}

// commitWindow handles the coordinator's commit frame: seal the
// prepared window durably and ack.
func (a *Analyzer) commitWindow(g gen) error {
	a.mu.Lock()
	pw := a.preparedW[g.col]
	a.mu.Unlock()
	if pw == nil || pw.restored || pw.att != g.att {
		return fmt.Errorf("%w: commit for collection %d attempt %d, which this shard never prepared", errBadFrame, g.col, g.att)
	}
	if err := a.sealWindow(g.col, pw.words, true); err != nil {
		return fmt.Errorf("%w: %v", errShardFatal, err)
	}
	a.mu.Lock()
	delete(a.preparedW, g.col)
	a.mu.Unlock()
	a.chunks.prune(g.col)
	return a.writeCoord(func(w io.Writer) error {
		return writeGenFrame(w, tagShardAck, g)
	})
}

// healThrough commits, in order, every prepared window below col: the
// coordinator sealed those collections (or it could not be sealing
// col), their commit frames just never arrived. A gap — a collection
// below col with no prepared window and no committed seal — is
// unrecoverable: the shard's cut of that round exists nowhere.
func (a *Analyzer) healThrough(col uint32) error {
	a.mu.Lock()
	var cols []uint32
	for c := range a.preparedW {
		if c < col {
			cols = append(cols, c)
		}
	}
	a.mu.Unlock()
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	for _, c := range cols {
		a.mu.Lock()
		pw := a.preparedW[c]
		a.mu.Unlock()
		a.stateMu.Lock()
		sealed := a.collections
		a.stateMu.Unlock()
		if int(c) < sealed {
			// Already committed (a duplicate prepare survived); drop it.
			a.mu.Lock()
			delete(a.preparedW, c)
			a.mu.Unlock()
			continue
		}
		if int(c) != sealed {
			return fmt.Errorf("cluster: shard %d cannot heal collection %d with %d windows committed (an earlier window was lost)", a.cfg.Shard, c, sealed)
		}
		if err := a.sealWindow(c, pw.words, true); err != nil {
			return err
		}
		a.mu.Lock()
		delete(a.preparedW, c)
		a.mu.Unlock()
		a.chunks.prune(c)
	}
	return nil
}

// sealWindow is a shard's commit: one ledger charge, the rotation
// marker (live only — a replay's marker is already durable), the
// counts fold, and a fresh checkpoint. The shard's cumulative state
// uses window semantics: reals accumulates revealed WORDS (its cut of
// users and fakes alike) and fakes stays 0 — ShardCounts is the
// meaningful output, and it merges exactly into the coordinator's
// counts.
func (a *Analyzer) sealWindow(collection uint32, words []uint64, persist bool) error {
	if a.cfg.Ledger != nil {
		if err := a.cfg.Ledger.Charge(); err != nil {
			return fmt.Errorf("cluster: charging shard window %d: %w", collection, err)
		}
	}
	if persist && a.st != nil {
		if err := a.st.Rotate(collection, int64(collection)+1); err != nil {
			return err
		}
	}
	_, err := a.fold(collection, words, len(words), 0)
	return err
}

// writeCoord runs one frame write on the coordinator link under the
// write mutex and a deadline.
func (a *Analyzer) writeCoord(write func(io.Writer) error) error {
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
	return write(conn)
}

// --- coordinator side of the shard links ---

// awaitShardWords reads shard s's revealed window for attempt g
// (skipping stale frames from aborted attempts and late acks).
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
		switch tag {
		case tagShardWords, tagFail:
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
		case tagShardAck:
			continue // a late ack from an earlier round's commit
		default:
			return nil, fmt.Errorf("%w: shard %d sent tag %d, want words", errBadFrame, s, tag)
		}
	}
}

// commitShards broadcasts the second commit phase to every shard and
// waits for each ack. It runs after the coordinator's own durable seal
// — the commit point — so any failure here is a hard Collect error:
// the coordinator's round stands and the lagging shard heals from its
// WAL at the next round's watermark.
func (a *Analyzer) commitShards(shards []net.Conn, g gen) error {
	for s := 1; s < len(shards); s++ {
		conn := shards[s]
		if a.cfg.CollectTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(a.cfg.CollectTimeout))
		}
		err := writeGenFrame(conn, tagShardCommit, g)
		conn.SetWriteDeadline(time.Time{})
		if err != nil {
			a.dropShard(s, conn)
			return fmt.Errorf("committing shard %d: %w", s, err)
		}
	}
	for s := 1; s < len(shards); s++ {
		if err := a.awaitShardAck(shards[s], s, g); err != nil {
			a.dropShard(s, shards[s])
			return err
		}
	}
	return nil
}

// awaitShardAck reads one shard's commit ack for attempt g.
func (a *Analyzer) awaitShardAck(conn net.Conn, s int, g gen) error {
	for {
		if a.cfg.CollectTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(a.cfg.CollectTimeout)); err != nil {
				return err
			}
		}
		tag, payload, err := transport.ReadTaggedFrame(conn)
		if err != nil {
			return fmt.Errorf("awaiting shard %d commit ack: %w", s, err)
		}
		switch tag {
		case tagShardAck:
			ag, err := parseGenFrame(payload)
			if err != nil {
				return err
			}
			if ag != g {
				continue
			}
			return nil
		case tagShardWords, tagFail:
			continue // stale traffic from an aborted attempt
		default:
			return fmt.Errorf("%w: shard %d sent tag %d, want an ack", errBadFrame, s, tag)
		}
	}
}
