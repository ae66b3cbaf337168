// Package pipeline provides the composable stage primitives the
// networked tiers are assembled from. The streaming service
// (internal/service) and the role-separated PEOS cluster nodes
// (internal/cluster) share the same stage vocabulary:
//
//	ingest   — Reader: one framed-report loop per connection, behind
//	           one read buffer, with an idle deadline so a stalled peer
//	           can never pin a goroutine (and, transitively, a graceful
//	           drain) forever.
//	batch    — RunBatcher: copy 8-byte words into one flat,
//	           pointer-free run up to a size bound, in arrival order,
//	           so the buffer they came from is free as soon as they are
//	           copied; runs come from a free list the consumer refills,
//	           when one is wired.
//	aggregate/forward — the stage behind the flush callback: the
//	           service's fold worker Pool (or, when every worker is
//	           busy, the reader that cut the run), which folds a whole
//	           run through the one codec fold its WAL replay shares, or
//	           a cluster node forwarding share vectors to the next hop.
//
// The primitives deliberately carry no protocol knowledge: framing is
// transport's, report semantics are the caller's. What they fix is the
// concurrency shape — deadline-guarded reads, bounded word runs,
// counted worker fan-out — so every tier gets the same hardening.
package pipeline

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

// ErrIdleTimeout is returned by Reader.Run when the connection stayed
// silent past the configured idle deadline. The caller decides policy:
// the service closes the connection and counts it, a cluster node
// fails the collection.
var ErrIdleTimeout = errors.New("pipeline: connection idle past deadline")

// Disconnected reports whether err is the kind of failure a remote
// peer's disappearance produces — EOF mid-frame, a connection reset, a
// broken pipe, or a locally closed connection — as opposed to a
// protocol violation by a live peer or an idle/deadline timeout. The
// self-healing tiers classify errors with it: a disconnect means "drop
// or redial this one connection", never "fail the node".
func Disconnected(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	return false
}

// readBufferSize is the read buffer Reader.Run puts in front of its
// connection: one Read fetches the headers and payloads of many small
// frames (a 256-report SOLH frame is about 1.3 KB), where reading each
// frame straight off the connection costs two. A frame larger than the
// buffer streams through it. It is a constant, not a knob: it bounds
// what one connection holds beyond its frame buffer.
const readBufferSize = 16 << 10

// Reader is the ingest stage: it reads tagged frames off one
// connection until EOF and hands each to Handle. It is the shared
// connection-reader of the service's readConn and the cluster nodes'
// ingest loops.
type Reader struct {
	// Conn is the connection to read. Reader never closes it, but Run
	// reads ahead into its buffer, so nothing else may read Conn once
	// Run has started.
	Conn net.Conn
	// IdleTimeout bounds the silence between frames; 0 means no bound.
	// When the peer sends nothing for this long, Run returns
	// ErrIdleTimeout instead of blocking forever.
	IdleTimeout time.Duration
	// MaxFrame caps the length prefix of a single frame; a frame
	// claiming more returns an error wrapping transport.ErrFrameTooLarge
	// without reading its payload. Zero falls back to
	// transport.MaxFrameSize (the 1 GiB defensive ceiling).
	MaxFrame int
	// Handle is called with each frame's tag and payload. Run reads
	// every frame into one buffer it reuses, so the payload is valid
	// only until Handle returns: Handle copies whatever it keeps. A
	// non-nil return stops the loop and is returned by Run verbatim (use
	// a sentinel to distinguish "stop wanted" from failure).
	Handle func(tag uint32, frame []byte) error
}

// Run reads frames until EOF (returning nil), an idle timeout
// (returning ErrIdleTimeout), a transport error, or a Handle error.
func (r *Reader) Run() error {
	var buf []byte
	br := bufio.NewReaderSize(r.Conn, readBufferSize)
	for {
		if r.IdleTimeout > 0 {
			if err := r.Conn.SetReadDeadline(time.Now().Add(r.IdleTimeout)); err != nil {
				return err
			}
		}
		tag, frame, err := transport.ReadTaggedFrameReuse(br, r.MaxFrame, buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return ErrIdleTimeout
			}
			return err
		}
		buf = frame
		if err := r.Handle(tag, frame); err != nil {
			return err
		}
	}
}

// RunBatcher is the batch stage over words: it copies them into one
// flat run and, once the run holds Size words (or FlushNow is called),
// hands it to Flush in arrival order. The run is one pointer-free
// buffer, taken from Free when a returned one is waiting there and
// allocated otherwise, and it holds copies, so a frame's words are
// free once Add returns; a run holds the records an unpermuted Batcher
// would flush, in the same order. What a word means is the caller's
// (the service's reports, unpacked by its codec). A RunBatcher is not
// safe for concurrent use — its tier serializes the calls that cut its
// runs (the service under its batch mutex).
type RunBatcher struct {
	// Size is the flush threshold in words. It must be > 0.
	Size int
	// Flush receives each run. The slice is owned by the callee.
	Flush func(run []uint64)
	// Free, when non-nil, is the free list runs are taken from: a new
	// run is a buffer received from Free, or a fresh allocation when
	// none is waiting. Whoever ends a flushed run's life may send it
	// back (a send to a full list should drop it instead of blocking).
	// Nil allocates every run.
	Free chan []uint64

	run []uint64
}

// Add appends words, flushing every time the run reaches Size words —
// the words of one call may span several batches.
func (b *RunBatcher) Add(words []uint64) {
	for len(words) > 0 {
		if b.run == nil {
			select {
			case run := <-b.Free:
				b.run = run[:0]
			default:
				b.run = make([]uint64, 0, b.Size)
			}
		}
		n := min(len(words), b.Size-len(b.run))
		b.run = append(b.run, words[:n]...)
		words = words[n:]
		if len(b.run) == b.Size {
			b.FlushNow()
		}
	}
}

// FlushNow flushes the buffered partial run, if any: hand off, reset.
// The epoch cut and the graceful drain both end with one FlushNow.
func (b *RunBatcher) FlushNow() {
	if len(b.run) == 0 {
		return
	}
	run := b.run
	b.run = nil
	b.Flush(run)
}

// Batcher is the batch + shuffle stage over byte-slice items: it
// accumulates them and, once Size is reached (or FlushNow is called),
// permutes the batch with Rand and hands a freshly-allocated copy to
// Flush. The service batches with RunBatcher and permutes nothing;
// Batcher is kept only because benchmark/replay.go prices its
// pipeline.batch_shuffle layer with it (ROADMAP item 6(e)). A Batcher
// is not safe for concurrent use.
type Batcher struct {
	// Size is the flush threshold; Add flushes when the buffer reaches
	// it. It must be > 0.
	Size int
	// Rand drives the batch permutations (one Shuffle call per flushed
	// batch). A nil Rand flushes in arrival order.
	Rand *rng.Rand
	// Flush receives each permuted batch. The slice is owned by the
	// callee.
	Flush func(batch [][]byte)

	buf [][]byte
}

// Add appends one item, flushing if the buffer reaches Size.
func (b *Batcher) Add(item []byte) {
	if b.buf == nil {
		b.buf = make([][]byte, 0, b.Size)
	}
	b.buf = append(b.buf, item)
	if len(b.buf) >= b.Size {
		b.FlushNow()
	}
}

// FlushNow flushes the buffered partial batch, if any: permute, copy,
// hand off, reset.
func (b *Batcher) FlushNow() {
	if len(b.buf) == 0 {
		return
	}
	if b.Rand != nil {
		b.Rand.Shuffle(len(b.buf), func(i, j int) {
			b.buf[i], b.buf[j] = b.buf[j], b.buf[i]
		})
	}
	batch := make([][]byte, len(b.buf))
	copy(batch, b.buf)
	b.buf = b.buf[:0]
	b.Flush(batch)
}

// Pool is the aggregate stage's worker fan-out: n copies of one loop,
// joined by Wait. It exists so every tier counts its workers the same
// way instead of hand-rolling a WaitGroup per stage.
type Pool struct {
	wg sync.WaitGroup
}

// Go starts fn(i) for i in [0, n) as pool goroutines.
func (p *Pool) Go(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			fn(i)
		}(i)
	}
}

// Wait blocks until every goroutine started by Go has returned.
func (p *Pool) Wait() { p.wg.Wait() }
