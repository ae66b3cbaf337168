package cluster

import (
	"io"

	"shuffledp/internal/transport"
)

// Hooks for the external test package (cluster_test), which owns the
// multi-node harness but cannot see unexported state or frame tags.

// HeldChunks lists the chunk frames a shard holds: shuffler index ->
// the (collection, attempt) its slot's frame is stamped with.
func (a *Analyzer) HeldChunks() map[int][2]uint32 {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	held := map[int][2]uint32{}
	for j, c := range a.chunks {
		if c.tag != 0 {
			held[j] = [2]uint32{c.g.col, c.g.att}
		}
	}
	return held
}

// WriteShufflerHello opens a connection to an analyzer node the way
// shuffler j's control or data link does.
func WriteShufflerHello(w io.Writer, j int) error {
	return writeHello(w, tagShufflerHello, j)
}

// WriteChunkFrame writes one plain post-shuffle chunk frame for
// collection attempt (col, att), as a shuffler's data link would.
func WriteChunkFrame(w io.Writer, col, att uint32, words []uint64) error {
	return transport.WriteTaggedFrame(w, tagVector, prefixed(gen{col: col, att: att}, transport.EncodeUint64s(words)))
}

// WriteClientHello opens a connection to a shuffler the way a client's
// ingest link does.
func WriteClientHello(w io.Writer) error { return writeHello(w, tagClientHello, 0) }

// WriteEncReportFrame writes one encReport frame carrying ct verbatim —
// a hostile client's way to hand the encrypted holder arbitrary bytes.
func WriteEncReportFrame(w io.Writer, col, index uint32, nonce uint64, ct []byte) error {
	return writeEncReportFrame(w, col, index, nonce, ct)
}
