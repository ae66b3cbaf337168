package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ecies"
	"shuffledp/internal/hash"
	"shuffledp/internal/ldp"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/pipeline"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// Replay sample sizes: reports for the cheap per-report layers, words
// for the AHE layers (tens of microseconds each).
const (
	replayReports = 1 << 16
	replayWords   = 1 << 10
)

// layerCosts is the layer replay's result: for each layer entry point,
// what one operation costs when a fixed sample of the workload's own
// inputs is pushed through it on one goroutine, in isolation — busy
// wall nanoseconds (ns) and process CPU nanoseconds (cpu; they differ
// where an op waits, as a WAL commit waits for its fsync). It is a
// per-op cost, good for locating where CPU goes and for telling whether
// a layer got cheaper; it is never multiplied out into an end-to-end
// time or a speedup.
type layerCosts struct {
	ns, cpu map[string]float64
	values  map[string]float64
}

// derive records dst as src's cost split over div operations (a frame
// of 256 reports → per report).
func (c *layerCosts) derive(dst, src string, div float64) {
	c.ns[dst] = c.ns[src] / div
	c.cpu[dst] = c.cpu[src] / div
}

// replayer times layer entry points under a shared time budget.
type replayer struct {
	w        workload
	tr       *tracer
	deadline time.Time
	perLayer time.Duration
	costs    *layerCosts
	// err is the first error any replayed operation returned; once set,
	// later layers are skipped.
	err error
}

// time pushes up to maxOps operations through op in chunks, stopping
// early once the layer's share of the budget is spent, and records the
// mean busy ns and CPU ns per op plus a replay span carrying the op
// count. op is called with the operation's index; chunk is how many
// operations one clock reading covers. It returns how many operations
// ran.
func (rp *replayer) time(name string, maxOps, chunk int, op func(i int) error) int {
	if rp.err != nil {
		return 0
	}
	maxOps = max(maxOps, 1)
	chunk = min(max(chunk, 1), maxOps)
	sp := rp.tr.begin(name, "replay", -1, 0)
	stop := time.Now().Add(rp.perLayer)
	done := 0
	cpu0 := cpuSeconds()
	start := time.Now()
loop:
	for done < maxOps {
		end := min(done+chunk, maxOps)
		for ; done < end; done++ {
			if err := op(done); err != nil {
				rp.err = fmt.Errorf("%s: %w", name, err)
				break loop
			}
		}
		if now := time.Now(); now.After(stop) || now.After(rp.deadline) {
			break
		}
	}
	ops := float64(max(done, 1))
	rp.costs.ns[name] = float64(time.Since(start).Nanoseconds()) / ops
	rp.costs.cpu[name] = (cpuSeconds() - cpu0) * 1e9 / ops
	rp.tr.end(sp, int64(done))
	return done
}

// replayLayers runs the layer replay for one workload within budget.
func replayLayers(w workload, seed uint64, tr *tracer, outDir string, budget time.Duration) (*layerCosts, error) {
	rp := &replayer{
		w: w, tr: tr,
		deadline: time.Now().Add(budget),
		perLayer: budget / 24,
		costs:    &layerCosts{ns: map[string]float64{}, cpu: map[string]float64{}, values: map[string]float64{}},
	}
	fo := w.fo()
	values := w.values(seed)
	sample := min(replayReports, len(values))
	r := rng.Substream(seed, 0x7e91a7)

	// --- ldp: randomize, aggregate, estimate, clone+merge, state.
	reports := make([]ldp.Report, sample)
	rp.time("ldp.randomize", sample, 1024, func(i int) error {
		reports[i] = fo.Randomize(values[i], r)
		return nil
	})
	// Whole shuffle batches only, so every Add's share of its block
	// flush is inside the clock.
	agg := fo.NewAggregator()
	whole := sample / service.DefaultBatchSize * service.DefaultBatchSize
	if whole == 0 {
		whole = sample
	}
	rp.time("ldp.aggregate", whole, service.DefaultBatchSize, func(i int) error {
		agg.Add(reports[i])
		return nil
	})
	rp.time("ldp.estimates", 32, 1, func(int) error {
		agg.Estimates()
		return nil
	})
	// What a two-epoch window query does to sealed roots.
	rp.time("ldp.clone_merge", 32, 1, func(int) error {
		c := agg.Clone()
		c.Merge(agg.Clone())
		return nil
	})
	state, err := agg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	rp.costs.values["ldp.state_bytes"] = float64(len(state))

	// --- ldp word encoding (the PEOS report format).
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		return nil, err
	}
	words := make([]uint64, sample)
	rp.time("ldp.word_encode", sample, 4096, func(i int) error {
		words[i] = enc.Encode(reports[i])
		return nil
	})
	rp.time("ldp.word_decode", sample, 4096, func(i int) error {
		reports[i] = enc.Decode(words[i])
		return nil
	})

	// --- hash: the support-counting kernel under SOLH aggregation.
	if lh, ok := fo.(*ldp.LocalHash); ok {
		fam := hash.NewFamily(lh.DPrime())
		block := min(service.DefaultBatchSize, sample)
		seeds, ys := make([]uint64, block), make([]uint64, block)
		for i := range seeds {
			seeds[i], ys[i] = uint64(reports[i].Seed), uint64(reports[i].Value)
		}
		counts := make([]int, w.d)
		rp.time("hash.count_support_block", 64, 1, func(int) error {
			fam.CountSupport(seeds, ys, counts)
			return nil
		})
		rp.costs.derive("hash.count_support_pair", "hash.count_support_block", float64(block*w.d))
	}

	if w.kind == kindService {
		rp.replayService(fo, reports, state, outDir)
	} else {
		rp.replayPEOS(fo, reports, words, seed)
	}
	return rp.costs, rp.err
}

// fail records a set-up error between layers.
func (rp *replayer) fail(err error) bool {
	if err != nil && rp.err == nil {
		rp.err = err
	}
	return rp.err != nil
}

// replayService times the service-side layers: codec, session client,
// ECIES session and storage sealing, framing, batch shuffle, and — for
// the durable workload — the WAL and checkpoint.
func (rp *replayer) replayService(fo ldp.FrequencyOracle, reports []ldp.Report, state []byte, outDir string) {
	w := rp.w
	codec, err := service.NewCodec(fo)
	if rp.fail(err) {
		return
	}
	size := codec.Size()
	payloads := make([]byte, 0, len(reports)*size)
	rp.time("service.codec_marshal", len(reports), 4096, func(i int) (err error) {
		payloads, err = codec.AppendMarshal(payloads, reports[i])
		return err
	})
	records := len(payloads) / size
	if records == 0 {
		return
	}
	record := func(i int) []byte { i %= records; return payloads[i*size : (i+1)*size : (i+1)*size] }
	rp.time("service.codec_unmarshal", records, 4096, func(i int) error {
		_, err := codec.Unmarshal(record(i))
		return err
	})

	key, err := ecies.GenerateKey()
	if rp.fail(err) {
		return
	}
	// SendReport into a discarding writer: marshal, batch, seal, frame —
	// everything the client does short of the socket write.
	cl, err := service.NewSessionClient(fo, key.Public(), nil, io.Discard, 0)
	if rp.fail(err) {
		return
	}
	rp.time("service.client_send", len(reports), 4096, func(i int) error { return cl.SendReport(reports[i]) })

	var cs, ss *ecies.Session
	rp.time("ecies.handshake", 64, 1, func(int) error {
		var hello []byte
		var err error
		if cs, hello, err = ecies.NewClientSession(key.Public()); err != nil {
			return err
		}
		ss, err = ecies.NewServerSession(key, hello)
		return err
	})
	if rp.err != nil {
		return
	}
	// One session frame is DefaultClientBatch records; costs are per
	// report.
	perFrame := min(service.DefaultClientBatch, records)
	plain := payloads[:perFrame*size]
	sealed := make([][]byte, max(records/perFrame, 1))
	sealedN := rp.time("ecies.session_seal_frame", len(sealed), 8, func(i int) (err error) {
		sealed[i], err = cs.Seal(make([]byte, 0, len(plain)+ecies.SessionOverhead), plain)
		return err
	})
	rp.costs.derive("ecies.session_seal", "ecies.session_seal_frame", float64(perFrame))
	buf := make([]byte, 0, len(plain))
	rp.time("ecies.session_open_frame", sealedN, 8, func(i int) error {
		_, err := ss.Open(buf[:0], sealed[i])
		return err
	})
	rp.costs.derive("ecies.session_open", "ecies.session_open_frame", float64(perFrame))
	if rp.err != nil {
		return
	}

	var wire bytes.Buffer
	rp.time("transport.frame_write_frame", len(sealed), 8, func(int) error {
		wire.Reset()
		return transport.WriteTaggedFrame(&wire, service.EpochCurrent, sealed[0])
	})
	rp.costs.derive("transport.frame_write", "transport.frame_write_frame", float64(perFrame))
	encoded := append([]byte(nil), wire.Bytes()...)
	rd := bytes.NewReader(encoded)
	var rbuf []byte
	rp.time("transport.frame_read_frame", len(sealed), 8, func(int) (err error) {
		rd.Reset(encoded)
		_, rbuf, err = transport.ReadTaggedFrameReuse(rd, service.DefaultMaxFrame, rbuf)
		return err
	})
	rp.costs.derive("transport.frame_read", "transport.frame_read_frame", float64(perFrame))

	b := &pipeline.Batcher{Size: service.DefaultBatchSize, Rand: rng.New(1), Flush: func([][]byte) {}}
	rp.time("pipeline.batch_shuffle", records, 4096, func(i int) error {
		b.Add(record(i))
		return nil
	})

	if !w.durable || rp.err != nil {
		return
	}
	sealer, err := ecies.NewStorageSealer(key)
	if rp.fail(err) {
		return
	}
	var sbuf []byte
	rp.time("ecies.storage_seal", records, 4096, func(i int) error {
		sbuf = sealer.Seal(sbuf[:0], record(i))
		return nil
	})

	dir, err := scratchDir(outDir, -1)
	if rp.fail(err) {
		return
	}
	defer os.RemoveAll(dir)
	meta := store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}
	st, err := store.Create(dir, meta, durableSync)
	if rp.fail(err) {
		return
	}
	defer st.Close()
	// Append and commit in shuffle-batch rhythm, as the service does:
	// one Commit per batch. Two clocks share the loop, so this layer
	// keeps its own instead of going through time.
	sp := rp.tr.begin("store.wal", "replay", -1, 0)
	var appendNS, commitNS time.Duration
	var appendCPU, commitCPU float64
	appended, commits := 0, 0
	stop := time.Now().Add(2 * rp.perLayer)
	for appended+service.DefaultBatchSize <= records || commits == 0 {
		c0, t0 := cpuSeconds(), time.Now()
		for i := 0; i < service.DefaultBatchSize; i++ {
			if rp.fail(st.AppendSealedReport(0, sbuf)) {
				return
			}
		}
		c1, t1 := cpuSeconds(), time.Now()
		if rp.fail(st.Commit()) {
			return
		}
		appendNS, commitNS = appendNS+t1.Sub(t0), commitNS+time.Since(t1)
		appendCPU, commitCPU = appendCPU+c1-c0, commitCPU+cpuSeconds()-c1
		appended, commits = appended+service.DefaultBatchSize, commits+1
		if time.Now().After(stop) {
			break
		}
	}
	rp.tr.end(sp, int64(appended))
	rp.costs.ns["store.wal_append"] = float64(appendNS.Nanoseconds()) / float64(appended)
	rp.costs.cpu["store.wal_append"] = appendCPU * 1e9 / float64(appended)
	rp.costs.ns["store.wal_commit"] = float64(commitNS.Nanoseconds()) / float64(commits)
	rp.costs.cpu["store.wal_commit"] = commitCPU * 1e9 / float64(commits)
	rp.costs.values["store.wal_bytes_per_report"] = float64(dirBytes(dir)) / float64(appended)

	// A mid-run checkpoint: the all-time aggregate plus half the run's
	// sealed epoch roots (every retained root is rewritten at each seal).
	epochs := max(w.n/max(w.epochReports, 1), 1)
	cp := &store.Checkpoint{
		Meta: meta, OpenEpoch: epochs/2 + 1, OpenCharged: true,
		Received: int64(appended), Batches: int64(commits), AllTime: state,
	}
	for e := 0; e < max(epochs/2, 1); e++ {
		cp.History = append(cp.History, store.EpochCheckpoint{Epoch: e, Reports: w.epochReports, Root: state})
	}
	rp.time("store.checkpoint", 8, 1, func(int) error { return st.WriteCheckpoint(cp) })
}

// dirBytes totals the regular files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// replayPEOS times the PEOS layers on a sample of the workload's own
// report words: share splitting, every AHE operation (with the
// randomizer pool off, so each op carries its full cost on this one
// goroutine), the oblivious shuffle with and without the encrypted
// column, the reveal, and the server's estimate.
func (rp *replayer) replayPEOS(fo ldp.FrequencyOracle, reports []ldp.Report, words []uint64, seed uint64) {
	w := rp.w
	priv, _, err := loadKey(w.keyBits)
	if rp.fail(err) {
		return
	}
	pub := ahe.PublicKey(priv)
	mod := secretshare.NewModulus(64)
	src := rng.Substream(seed, 0x5eed)

	shares := make([][]uint64, min(replayWords, len(words)))
	rp.time("secretshare.split", len(words), 4096, func(i int) error {
		s := secretshare.Split(words[i], w.r, mod, src)
		if i < len(shares) {
			shares[i] = s
		}
		return nil
	})

	cts := make([]*ahe.Ciphertext, len(shares))
	sample := rp.time("ahe.encrypt", len(cts), 16, func(i int) (err error) {
		cts[i], err = pub.Encrypt(shares[i][w.r-1])
		return err
	})
	if rp.err != nil || sample == 0 {
		return
	}
	cts, shares = cts[:sample], shares[:sample]
	rp.time("ahe.add_plain", sample, 16, func(i int) error {
		_, err := pub.AddPlain(cts[i], words[i])
		return err
	})
	rp.time("ahe.rerandomize", sample, 16, func(i int) error {
		_, err := pub.Rerandomize(cts[i])
		return err
	})
	rp.time("ahe.decrypt", sample, 16, func(i int) error {
		_, err := priv.Decrypt(cts[i])
		return err
	})
	blobs := make([][]byte, sample)
	for i := range blobs {
		blobs[i] = pub.Serialize(cts[i])
	}
	rp.time("ahe.serialize", sample, 64, func(i int) error {
		pub.Serialize(cts[i])
		return nil
	})
	rp.time("ahe.deserialize", sample, 64, func(i int) error {
		_, err := pub.Deserialize(blobs[i])
		return err
	})
	rp.costs.values["ahe.ciphertext_bytes"] = float64(pub.CiphertextBytes())

	// One framed ciphertext per report, the cluster client's wire.
	var wire bytes.Buffer
	rp.time("transport.frame_write", sample, 64, func(int) error {
		wire.Reset()
		return transport.WriteTaggedFrame(&wire, 0, blobs[0])
	})
	encoded := append([]byte(nil), wire.Bytes()...)
	rd := bytes.NewReader(encoded)
	var rbuf []byte
	rp.time("transport.frame_read", sample, 64, func(int) (err error) {
		rd.Reset(encoded)
		_, rbuf, err = transport.ReadTaggedFrameReuse(rd, 1<<20, rbuf)
		return err
	})

	// The oblivious shuffle over the sample's share state, laid out as
	// PEOS.Run lays it out — once with the encrypted column (EOS) and
	// once all-plaintext, so the AHE share of the shuffle is the
	// difference of two measurements.
	newState := func(withEnc bool) *oblivious.State {
		st := &oblivious.State{Plain: make([][]uint64, w.r), EncHolder: -1}
		for j := range st.Plain {
			st.Plain[j] = make([]uint64, sample)
			for i := range st.Plain[j] {
				st.Plain[j][i] = shares[i][j]
			}
		}
		if withEnc {
			st.Plain[w.r-1] = nil
			st.Enc = make([]*ahe.Ciphertext, sample)
			for i := range st.Enc {
				st.Enc[i] = cts[i].Clone()
			}
			st.EncHolder = w.r - 1
		}
		return st
	}
	cfg := oblivious.Config{Mod: mod, Source: src, Pub: pub}
	eos, plain := newState(true), newState(false)
	rp.time("oblivious.run_state", 1, 1, func(int) error { return oblivious.Run(eos, cfg) })
	rp.costs.derive("oblivious.run_word", "oblivious.run_state", float64(sample))
	rp.time("oblivious.plain_run_state", 1, 1, func(int) error { return oblivious.Run(plain, cfg) })
	rp.costs.derive("oblivious.plain_run_word", "oblivious.plain_run_state", float64(sample))
	var revealed []uint64
	rp.time("oblivious.reveal_state", 1, 1, func(int) (err error) {
		revealed, err = oblivious.RevealParallel(eos, mod, priv, 0)
		return err
	})
	rp.costs.derive("oblivious.reveal_word", "oblivious.reveal_state", float64(sample))
	if rp.err != nil {
		return
	}
	// The shuffle must preserve the word multiset: a cheap self-check of
	// the replay's own plumbing (sums are permutation-invariant).
	var sumIn, sumOut uint64
	for i := 0; i < sample; i++ {
		sumIn += words[i]
		sumOut += revealed[i]
	}
	if sumIn != sumOut {
		rp.fail(fmt.Errorf("replayed oblivious shuffle changed the word multiset"))
		return
	}

	// The server's estimate over a full round's worth of reports.
	round := make([]ldp.Report, w.n+w.nr)
	for i := range round {
		round[i] = reports[i%len(reports)]
	}
	rp.time("protocol.estimate", 8, 1, func(int) error {
		protocol.Estimate(fo, round, w.n, w.nr)
		return nil
	})
}
