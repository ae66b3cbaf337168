package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

func TestReaderDeliversFramesUntilEOF(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	go func() {
		transport.WriteTaggedFrame(c1, 7, []byte("a"))
		transport.WriteTaggedFrame(c1, 9, []byte("bc"))
		c1.Close()
	}()
	var tags []uint32
	var payloads []string
	r := &Reader{Conn: c2, Handle: func(tag uint32, frame []byte) error {
		tags = append(tags, tag)
		payloads = append(payloads, string(frame))
		return nil
	}}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(tags) != 2 || tags[0] != 7 || tags[1] != 9 || payloads[0] != "a" || payloads[1] != "bc" {
		t.Fatalf("got tags %v payloads %v", tags, payloads)
	}
}

func TestReaderIdleTimeout(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	// Send one frame, then stall forever.
	go transport.WriteTaggedFrame(c1, 1, []byte("x"))
	got := 0
	r := &Reader{Conn: c2, IdleTimeout: 50 * time.Millisecond, Handle: func(uint32, []byte) error {
		got++
		return nil
	}}
	start := time.Now()
	err := r.Run()
	if !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("want ErrIdleTimeout, got %v", err)
	}
	if got != 1 {
		t.Fatalf("want 1 frame before the stall, got %d", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("idle timeout took %v", elapsed)
	}
}

func TestReaderHandleErrorStopsLoop(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		transport.WriteTaggedFrame(c1, 1, []byte("x"))
		transport.WriteTaggedFrame(c1, 2, []byte("y"))
	}()
	sentinel := errors.New("stop")
	r := &Reader{Conn: c2, Handle: func(uint32, []byte) error { return sentinel }}
	if err := r.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
}

// MaxFrame makes an oversized length prefix a loop-stopping error
// wrapping transport.ErrFrameTooLarge, without reading the payload.
func TestReaderMaxFrame(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		transport.WriteTaggedFrame(c1, 1, []byte("fits"))
		transport.WriteTaggedFrame(c1, 2, make([]byte, 100))
	}()
	var got int
	r := &Reader{Conn: c2, MaxFrame: 50, Handle: func(uint32, []byte) error {
		got++
		return nil
	}}
	err := r.Run()
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if got != 1 {
		t.Fatalf("want 1 frame before the oversized one, got %d", got)
	}
}

// Frames arrive in one recycled buffer, so Handle must copy what it
// keeps.
func TestReaderReusesFrameBuffer(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		transport.WriteTaggedFrame(c1, 1, []byte("first"))
		transport.WriteTaggedFrame(c1, 2, []byte("second"))
		c1.Close()
	}()
	var copies []string
	var raw [][]byte
	r := &Reader{Conn: c2, Handle: func(_ uint32, frame []byte) error {
		copies = append(copies, string(frame))
		raw = append(raw, frame)
		return nil
	}}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(copies) != 2 || copies[0] != "first" || copies[1] != "second" {
		t.Fatalf("payload copies = %v", copies)
	}
	// The reuse contract: both Handle calls saw the same underlying
	// buffer, so the retained raw slice was clobbered by frame two.
	if string(raw[0]) != "secon" {
		t.Fatalf("expected frame 1's retained slice to be recycled, got %q", raw[0])
	}
}

// countingConn is a net.Conn whose reads come from r, counted.
type countingConn struct {
	net.Conn
	r     io.Reader
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReaderBuffersFrames: small frames are read through one buffer,
// so the conn sees about one Read per buffer of bytes, not two per
// frame.
func TestReaderBuffersFrames(t *testing.T) {
	var wire bytes.Buffer
	for i := 0; i < 1000; i++ {
		if err := transport.WriteTaggedFrame(&wire, uint32(i), bytes.Repeat([]byte{byte(i)}, 1+i%40)); err != nil {
			t.Fatal(err)
		}
	}
	total := wire.Len()
	conn := &countingConn{r: &wire}
	frames := 0
	r := &Reader{Conn: conn, Handle: func(tag uint32, frame []byte) error {
		if tag != uint32(frames) || len(frame) != 1+frames%40 || frame[0] != byte(frames) {
			t.Fatalf("frame %d: tag %d, %d bytes", frames, tag, len(frame))
		}
		frames++
		return nil
	}}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if frames != 1000 {
		t.Fatalf("delivered %d frames, want 1000", frames)
	}
	if limit := (total+readBufferSize-1)/readBufferSize + 2; conn.reads > limit {
		t.Fatalf("%d Read calls for %d bytes, want at most %d", conn.reads, total, limit)
	}
}

// TestRunBatcherMatchesBatcher: the run batcher flushes byte for byte
// the records, in arrival order, that an unpermuted Batcher flushes —
// over frames that straddle batch boundaries and a cut mid-batch, as
// an epoch rotation makes it.
func TestRunBatcherMatchesBatcher(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8, 13} {
		var want, got [][]byte
		old := &Batcher{Size: 64, Flush: func(batch [][]byte) {
			want = append(want, bytes.Join(batch, nil))
		}}
		run := &RunBatcher{Size: 64, RecordSize: size, Flush: func(r []byte) {
			got = append(got, r)
		}}
		src := rng.New(uint64(size))
		frame := func(records int) []byte {
			f := make([]byte, records*size)
			for i := range f {
				f[i] = byte(src.Uint64())
			}
			return f
		}
		for i, records := range []int{1, 7, 100, 256, 3, 64, 130, 0, 41} {
			if i == 5 { // rotation: cut mid-batch
				old.FlushNow()
				run.FlushNow()
			}
			f := frame(records)
			kept := bytes.Clone(f) // Batcher holds slices of its frames until they flush
			for off := 0; off < len(f); off += size {
				old.Add(kept[off : off+size])
			}
			run.Add(f)
			// The run holds copies: the frame's buffer is free at once.
			clear(f)
		}
		old.FlushNow()
		run.FlushNow()
		if len(got) != len(want) {
			t.Fatalf("record size %d: %d runs, Batcher flushed %d batches", size, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record size %d: run %d differs from Batcher's batch", size, i)
			}
		}
	}
}

// TestRunBatcherReusesFreeRuns: a run sent back on Free is the next
// run's buffer, returned runs scrubbed to 0xFF still flush exactly the
// records a batcher without a free list flushes, and once the list
// holds a run per batch in flight the batcher allocates nothing.
func TestRunBatcherReusesFreeRuns(t *testing.T) {
	const size, batch = 5, 64
	var want, got [][]byte
	plain := &RunBatcher{Size: batch, RecordSize: size, Flush: func(r []byte) {
		want = append(want, r)
	}}
	free := make(chan []byte, 1)
	var last *byte
	pooled := &RunBatcher{Size: batch, RecordSize: size, Free: free, Flush: func(r []byte) {
		if last != nil && &r[0] != last {
			t.Errorf("run %d did not reuse the run sent back on Free", len(got))
		}
		last = &r[0]
		got = append(got, bytes.Clone(r))
		for i := range r {
			r[i] = 0xFF
		}
		free <- r
	}}
	src := rng.New(3)
	f := make([]byte, 100*size)
	for _, records := range []int{1, 7, 100, 64, 3, 41} {
		for i := range f[:records*size] {
			f[i] = byte(src.Uint64())
		}
		plain.Add(f[:records*size])
		pooled.Add(f[:records*size])
	}
	plain.FlushNow()
	pooled.FlushNow()
	if len(got) != len(want) {
		t.Fatalf("%d runs with a free list, %d without", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("run %d differs from the run a batcher without a free list flushed", i)
		}
	}

	steady := &RunBatcher{Size: batch, RecordSize: size, Free: free, Flush: func(r []byte) { free <- r }}
	steady.Add(f[:batch*size])
	if a := testing.AllocsPerRun(50, func() { steady.Add(f[:3*batch*size/2]) }); a != 0 {
		t.Fatalf("%.1f allocations per Add with a free list, want 0", a)
	}
}

func TestBatcherFlushesPermutedFullBatches(t *testing.T) {
	var batches [][][]byte
	b := &Batcher{Size: 4, Rand: rng.New(3), Flush: func(batch [][]byte) {
		batches = append(batches, batch)
	}}
	for i := 0; i < 10; i++ {
		b.Add([]byte{byte(i)})
	}
	if len(batches) != 2 {
		t.Fatalf("want 2 full batches, got %d", len(batches))
	}
	if len(b.buf) != 2 {
		t.Fatalf("want 2 buffered, got %d", len(b.buf))
	}
	b.FlushNow()
	if len(batches) != 3 || len(b.buf) != 0 {
		t.Fatalf("partial flush: %d batches, %d buffered", len(batches), len(b.buf))
	}
	// Every item must come out exactly once.
	seen := map[byte]bool{}
	total := 0
	for _, batch := range batches {
		for _, it := range batch {
			seen[it[0]] = true
			total++
		}
	}
	if total != 10 || len(seen) != 10 {
		t.Fatalf("lost or duplicated items: total=%d distinct=%d", total, len(seen))
	}
	// The permutation stream must match a direct Shuffle of the same
	// arrival order (the service's determinism contract).
	want := [][]byte{{0}, {1}, {2}, {3}}
	rng.New(3).Shuffle(4, func(i, j int) { want[i], want[j] = want[j], want[i] })
	for i := range want {
		if batches[0][i][0] != want[i][0] {
			t.Fatalf("batch 0 permutation diverged at %d: got %d want %d", i, batches[0][i][0], want[i][0])
		}
	}
}

func TestBatcherFlushNowEmptyIsNoop(t *testing.T) {
	calls := 0
	b := &Batcher{Size: 4, Flush: func([][]byte) { calls++ }}
	b.FlushNow()
	if calls != 0 {
		t.Fatalf("empty FlushNow called Flush %d times", calls)
	}
}

func TestPoolRunsAndJoins(t *testing.T) {
	var p Pool
	results := make([]int, 8)
	p.Go(8, func(i int) { results[i] = i + 1 })
	p.Wait()
	for i, v := range results {
		if v != i+1 {
			t.Fatalf("worker %d did not run", i)
		}
	}
}

func TestDisconnectedClassifiesErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"net-closed", net.ErrClosed, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"epipe", syscall.EPIPE, true},
		{"wrapped-reset", fmt.Errorf("read frame: %w", syscall.ECONNRESET), true},
		{"op-error", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		{"idle-timeout", ErrIdleTimeout, false},
		{"arbitrary", errors.New("bad frame"), false},
	}
	for _, tc := range cases {
		if got := Disconnected(tc.err); got != tc.want {
			t.Errorf("Disconnected(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
