// Package netproto runs the basic shuffle model (§III, Figure 1) as
// real message-passing parties over net.Conn connections: n user
// clients, one shuffler, one analysis server. It is the deployable
// face of the in-process pipeline in internal/protocol:
//
//	user:     randomize value -> encrypt report for the server
//	          -> frame it to the shuffler
//	shuffler: collect all reports -> permute -> forward to the server
//	          (sees only ciphertexts: "knows which report comes from
//	          which user, but does not know the content")
//	server:   decrypt -> aggregate -> estimate
//	          (cannot link reports to users: they arrived shuffled)
//
// Wire format: every message is a transport.WriteFrame frame. A user
// report frame is the ECIES encryption (server's key) of the 8-byte
// little-endian report word (ldp.WordEncoder). The shuffler's output
// to the server is the same frames in permuted order.
//
// The User/Shuffler/Server types here are the single-connection
// reference parties for that wire format; the production path —
// concurrent connections, streaming batches, mid-stream snapshots —
// lives in internal/service, and RunPipeline runs on top of it.
//
// This package covers only the BASIC one-shuffler model. The paper's
// hardened protocol — PEOS, with R >= 2 shufflers, secret-shared
// reports, joint fake injection, and the encrypted oblivious shuffle
// (§VI, Algorithm 1) — has its own deployable face in
// internal/cluster: real shuffler and analyzer nodes exchanging the
// protocol's messages over TCP, driven by cmd/shuffled's
// shuffler/analyzer/client subcommands and demonstrated by
// examples/peos_cluster.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/service"
	"shuffledp/internal/transport"
)

// User is one reporting client.
type User struct {
	// FO randomizes the value.
	FO ldp.FrequencyOracle
	// ServerKey encrypts the report end-to-end past the shuffler.
	ServerKey *ecies.PublicKey
	// Rand drives the LDP randomization.
	Rand *rng.Rand

	enc *ldp.WordEncoder
}

// NewUser prepares a client for the oracle.
func NewUser(fo ldp.FrequencyOracle, serverKey *ecies.PublicKey, r *rng.Rand) (*User, error) {
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, err
	}
	if serverKey == nil || r == nil {
		return nil, errors.New("netproto: user needs a server key and randomness")
	}
	return &User{FO: fo, ServerKey: serverKey, Rand: r, enc: enc}, nil
}

// Report randomizes v and writes one encrypted report frame to conn
// (typically the user's connection to the shuffler).
func (u *User) Report(conn io.Writer, v int) error {
	rep := u.FO.Randomize(v, u.Rand)
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], u.enc.Encode(rep))
	ct, err := ecies.Encrypt(u.ServerKey, payload[:])
	if err != nil {
		return fmt.Errorf("netproto: user encrypt: %w", err)
	}
	return transport.WriteFrame(conn, ct)
}

// Shuffler is the single auxiliary server of the basic model.
type Shuffler struct {
	// Rand drives the permutation.
	Rand *rng.Rand
}

// Collect reads exactly n report frames from in (the users' side).
func (s *Shuffler) Collect(in io.Reader, n int) ([][]byte, error) {
	reports := make([][]byte, n)
	for i := 0; i < n; i++ {
		frame, err := transport.ReadFrame(in)
		if err != nil {
			return nil, fmt.Errorf("netproto: shuffler read %d: %w", i, err)
		}
		reports[i] = frame
	}
	return reports, nil
}

// Forward permutes the collected reports and writes them to out (the
// server's connection). This break of the user-to-report linkage is the
// shuffler's entire job.
func (s *Shuffler) Forward(out io.Writer, reports [][]byte) error {
	if s.Rand == nil {
		return errors.New("netproto: shuffler needs randomness")
	}
	s.Rand.Shuffle(len(reports), func(i, j int) {
		reports[i], reports[j] = reports[j], reports[i]
	})
	for i, rep := range reports {
		if err := transport.WriteFrame(out, rep); err != nil {
			return fmt.Errorf("netproto: shuffler forward %d: %w", i, err)
		}
	}
	return nil
}

// Server is the analysis endpoint.
type Server struct {
	// FO must match the users' oracle (agreed out of band, as in
	// Algorithm 1's setup).
	FO ldp.FrequencyOracle
	// Key decrypts the reports.
	Key *ecies.PrivateKey

	enc *ldp.WordEncoder
}

// NewServer prepares the analysis endpoint.
func NewServer(fo ldp.FrequencyOracle, key *ecies.PrivateKey) (*Server, error) {
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, err
	}
	if key == nil {
		return nil, errors.New("netproto: server needs its private key")
	}
	return &Server{FO: fo, Key: key, enc: enc}, nil
}

// Receive reads n shuffled report frames, decrypts them, and returns
// the frequency estimates.
func (s *Server) Receive(in io.Reader, n int) ([]float64, error) {
	reports := make([]ldp.Report, n)
	for i := 0; i < n; i++ {
		frame, err := transport.ReadFrame(in)
		if err != nil {
			return nil, fmt.Errorf("netproto: server read %d: %w", i, err)
		}
		pt, err := ecies.Decrypt(s.Key, frame)
		if err != nil {
			return nil, fmt.Errorf("netproto: server decrypt %d: %w", i, err)
		}
		if len(pt) != 8 {
			return nil, errors.New("netproto: malformed report payload")
		}
		reports[i] = s.enc.Decode(binary.LittleEndian.Uint64(pt))
	}
	counts := ldp.SupportCounts(s.FO, reports)
	p, q, _ := ldp.SupportProbabilities(s.FO)
	return ldp.CalibrateCounts(counts, n, p, q), nil
}

// RunPipeline runs the shuffle model over the streaming ingestion
// service (internal/service): one client connection submits every
// report over an in-memory net.Pipe, the service batches, shuffles,
// decodes, and aggregates, and the final drained estimate is
// returned. cmd/shuffled runs the same pipeline over TCP with many
// concurrent clients.
//
// Randomization follows the engine's determinism contract: values are
// randomized in ShardSize shards from rng.Substream(seed, shard) (see
// ldp.RandomizeParallel), so for a fixed seed the resulting estimate
// is bit-identical no matter how the reports are later split across
// connections, batches, or workers — RunPipeline is the sequential
// reference the concurrent service is tested against.
func RunPipeline(fo ldp.FrequencyOracle, values []int, seed uint64) ([]float64, error) {
	key, err := ecies.GenerateKey()
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		FO:          fo,
		Key:         key,
		ShuffleSeed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	if err := svc.Ingest(serverSide); err != nil {
		return nil, err
	}
	client, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
	if err != nil {
		return nil, err
	}

	errc := make(chan error, 1)
	go func() {
		for _, rep := range ldp.RandomizeParallel(fo, values, seed, 1) {
			if err := client.SendReport(rep); err != nil {
				errc <- err
				clientSide.Close()
				return
			}
		}
		errc <- client.Close()
	}()

	snap, err := svc.Drain()
	if err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	return snap.Estimates, nil
}
