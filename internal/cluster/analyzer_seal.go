package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shuffledp/internal/ldp"
	"shuffledp/internal/store"
)

// seal makes one collection's revealed words (n user reports + NR
// fakes) state: decode them, and add their support counts to the
// cumulative counts. On a durable node it first writes the checkpoint
// of the state the collection produces; that rename is the
// collection's one commit point, and only once it returns is the state
// installed in memory, so a failed write leaves the analyzer as it
// was.
func (a *Analyzer) seal(collection uint32, n int, words []uint64) (Collection, error) {
	reports := make([]ldp.Report, len(words))
	for i, w := range words {
		reports[i] = a.enc.Decode(w)
	}
	colCounts := ldp.SupportCounts(a.cfg.FO, reports)
	if a.st != nil {
		if err := a.writeCheckpoint(collection, n, colCounts); err != nil {
			return Collection{}, err
		}
	}
	a.stateMu.Lock()
	for v, c := range colCounts {
		a.counts[v] += c
	}
	a.reals += n
	a.fakes += a.cfg.NR
	a.collections = int(collection) + 1
	a.stateMu.Unlock()
	return Collection{
		Collection: int(collection),
		Reports:    n,
		Fakes:      a.cfg.NR,
		Estimates:  a.sup.Calibrate(colCounts, n, a.cfg.NR),
		Cumulative: a.Estimates(),
	}, nil
}

// stateMagic/stateVersion frame the cumulative-counts blob stored in
// the checkpoint's aggregate slot. There is one version; a blob that
// names any other is refused by number.
const (
	stateMagic   = "PEOA"
	stateVersion = 1
)

// marshalState encodes (NR, reals, fakes, collections, counts), the
// counts being the cumulative ones plus colCounts — a collection's
// support counts not yet installed — so a seal can write the state it
// produces without changing the state it reads. NR is recorded so a
// recovery with a mismatched fake-report count is refused (it would
// silently mis-calibrate every estimate) instead of loaded. Callers
// hold stateMu.
func (a *Analyzer) marshalState(collections, reals, fakes int, colCounts []int) []byte {
	buf := append([]byte(nil), stateMagic...)
	buf = append(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.cfg.NR))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(reals))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fakes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(collections))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.counts)))
	for v, c := range a.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c+colCounts[v]))
	}
	return buf
}

func (a *Analyzer) unmarshalState(data []byte) error {
	const hdr = 4 + 1 + 4 + 8 + 8 + 8 + 4
	if len(data) < hdr || string(data[:4]) != stateMagic {
		return errors.New("cluster: malformed analyzer state blob")
	}
	if version := data[4]; version != stateVersion {
		return fmt.Errorf("cluster: analyzer state version %d (this build reads %d)", version, stateVersion)
	}
	nr := int(binary.LittleEndian.Uint32(data[5:]))
	if nr != a.cfg.NR {
		return fmt.Errorf("cluster: durable state was collected with NR=%d fakes per round, config says %d", nr, a.cfg.NR)
	}
	reals := binary.LittleEndian.Uint64(data[9:])
	fakes := binary.LittleEndian.Uint64(data[17:])
	collections := binary.LittleEndian.Uint64(data[25:])
	d := int(binary.LittleEndian.Uint32(data[33:]))
	if d != a.cfg.FO.Domain() {
		return fmt.Errorf("cluster: state blob covers domain %d, oracle has %d", d, a.cfg.FO.Domain())
	}
	if len(data) != hdr+8*d {
		return errors.New("cluster: truncated analyzer state blob")
	}
	a.reals = int(reals)
	a.fakes = int(fakes)
	a.collections = int(collections)
	for v := range a.counts {
		a.counts[v] = int(binary.LittleEndian.Uint64(data[hdr+8*v:]))
	}
	return nil
}

// writeCheckpoint makes durable the cumulative state sealing
// collection — n user reports, NR fakes, support counts colCounts —
// produces: the collection's commit point. It installs nothing. Only
// OpenEpoch (the next collection id, which also prunes the segments of
// earlier ones) and the state blob are meaningful for the analyzer;
// the service-specific slots stay zero.
func (a *Analyzer) writeCheckpoint(collection uint32, n int, colCounts []int) error {
	a.stateMu.Lock()
	cp := &store.Checkpoint{
		OpenEpoch: int(collection) + 1,
		AllTime:   a.marshalState(int(collection)+1, a.reals+n, a.fakes+a.cfg.NR, colCounts),
	}
	a.stateMu.Unlock()
	return a.st.WriteCheckpoint(cp)
}

// RecoverAnalyzer rebuilds a durable analyzer from cfg.DataDir — its
// newest checkpoint — to a state bit-identical to an uninterrupted run
// over the same sealed collections, without re-spending privacy
// budget. cfg must carry the same oracle, NR, and key material as the
// original run (the oracle, domain, and NR are validated against the
// checkpoint; the AHE key must be the persisted one — see
// ahe.MarshalDGKPrivateKey — or future ciphertext columns will not
// decrypt). A collection whose checkpoint never became durable is
// gone: its Collect never returned success. The analyzer writes no WAL
// record, so a directory holding any record past its checkpoint (an
// older build logged each collection's words and a rotation marker
// before checkpointing) is refused by name, not replayed, and its
// records are left as they are.
func RecoverAnalyzer(cfg AnalyzerConfig) (*Analyzer, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("cluster: RecoverAnalyzer needs AnalyzerConfig.DataDir")
	}
	a, err := prepareAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	st, rec, err := store.Open(cfg.DataDir, a.storeMeta(), store.SyncBatch)
	if err != nil {
		a.ln.Close()
		return nil, err
	}
	a.st = st
	if err := a.restore(rec); err != nil {
		st.Close()
		a.ln.Close()
		return nil, err
	}
	go acceptEach(a.ln, a.handshake)
	return a, nil
}

// restore applies the checkpoint and pays the ledger once through the
// last sealed collection: the payment is worked out from what was
// sealed, never by replaying charges. A sealed count the ledger cannot
// pay for means it runs under other parameters than the ones the
// directory was written under. A WAL record past the checkpoint is
// refused before anything is applied or paid. It runs before the
// accept loop exists, so it mutates state freely.
func (a *Analyzer) restore(rec *store.Recovered) error {
	if len(rec.Tail) > 0 {
		return fmt.Errorf("cluster: %s holds %d WAL record(s) past its checkpoint; this analyzer writes none (older builds logged a collection's words and rotation marker before checkpointing it): recover the directory with the build that wrote it",
			a.cfg.DataDir, len(rec.Tail))
	}
	if cp := rec.Checkpoint; cp != nil {
		if err := a.unmarshalState(cp.AllTime); err != nil {
			return err
		}
	}
	if a.cfg.Ledger != nil {
		if err := a.cfg.Ledger.PayThrough(a.collections - 1); err != nil {
			return fmt.Errorf("cluster: restoring ledger: %d sealed collections exceed the total budget (wrong ledger parameters?): %w", a.collections, err)
		}
	}
	return nil
}
