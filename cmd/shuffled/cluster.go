package main

// The role subcommands: `shuffled analyzer|shuffler|client` run ONE
// party of the PEOS security tier (internal/cluster) as its own
// process, so the paper's trust model — distinct machines per role —
// can be stood up for real:
//
//	# terminal 1: the analyzer generates the key pair and drives rounds
//	shuffled analyzer -listen :7900 -shufflers :7901,:7902 -key peos.key \
//	         -d 16 -nr 24 -n 400 -collections 2 -data-dir ./analyzer-state
//
//	# terminals 2, 3: one shuffler each (they only ever see the public key)
//	shuffled shuffler -index 0 -listen :7901 -shufflers :7901,:7902 \
//	         -analyzer :7900 -key peos.key.pub -nr 24
//	shuffled shuffler -index 1 -listen :7902 -shufflers :7901,:7902 \
//	         -analyzer :7900 -key peos.key.pub -nr 24
//
//	# terminal 4: a reporting client per collection round
//	shuffled client -shufflers :7901,:7902 -analyzer :7900 -key peos.key.pub \
//	         -d 16 -n 400 -collection 0
//
// The analyzer writes the private key to -key (0600) and the public
// half to -key.pub on first run and reloads them afterwards, so a
// restarted (recovered) analyzer keeps decrypting the cluster's
// ciphertexts. With -data-dir it seals each collection by writing one
// fsynced checkpoint of its cumulative counts — the decoded reports
// never reach the disk, so there is no fsync policy to choose — and a
// restart over the same directory resumes from the newest one. Oracle
// parameters (-oracle/-d/-dprime/-epsl) and -nr must match across all
// roles, like the protocol parameters they are.
// Two bounds are constants, not flags: a role retries dialing a peer
// that is not listening yet for 10 s, and drops an inbound connection
// that sends no hello within 30 s. The analyzer is one node: it
// decrypts each round across all of its cores, so a bigger analyzer
// host is the way to decrypt faster. Retries — of a round at the
// analyzer, of a shuffler connection at the client — back off from
// 50 ms up to 2 s, jittered; -retry-attempts sets how many tries each
// gets.

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
)

// oracleFlags are the mechanism parameters every role must agree on.
type oracleFlags struct {
	oracle *string
	d      *int
	dPrime *int
	epsL   *float64
}

func addOracleFlags(fs *flag.FlagSet) oracleFlags {
	return oracleFlags{
		oracle: fs.String("oracle", "grr", "frequency oracle: grr or solh"),
		d:      fs.Int("d", 16, "value domain size"),
		dPrime: fs.Int("dprime", 4, "hashed-domain size (solh only)"),
		epsL:   fs.Float64("epsl", 2, "local epsilon of the oracle"),
	}
}

func (of oracleFlags) build() (ldp.FrequencyOracle, error) {
	switch *of.oracle {
	case "grr":
		return ldp.NewGRR(*of.d, *of.epsL), nil
	case "solh":
		return ldp.NewSOLH(*of.d, *of.dPrime, *of.epsL), nil
	}
	return nil, fmt.Errorf("unknown -oracle %q (PEOS runs grr or solh)", *of.oracle)
}

// parseTopology builds the cluster topology from the address flags:
// a comma-separated shuffler list in role order and the analyzer's one
// address.
func parseTopology(shufflers, analyzer string) (cluster.Topology, error) {
	var topo cluster.Topology
	for _, a := range strings.Split(shufflers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			topo.Shufflers = append(topo.Shufflers, a)
		}
	}
	if len(topo.Shufflers) < 2 {
		return topo, errors.New("-shufflers needs at least 2 comma-separated addresses")
	}
	if analyzer = strings.TrimSpace(analyzer); analyzer == "" {
		return topo, errors.New("the analyzer address is required")
	}
	topo.Analyzers = []string{analyzer}
	return topo, nil
}

// loadOrCreateKey returns the analyzer's DGK key pair: loaded from
// path when the file exists, freshly generated (and persisted, with
// the public half next to it as path+".pub") otherwise.
func loadOrCreateKey(path string, keyBits int) (*ahe.DGKPrivateKey, error) {
	if blob, err := os.ReadFile(path); err == nil {
		priv, err := ahe.UnmarshalDGKPrivateKey(blob)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		fmt.Printf("loaded DGK key pair from %s\n", path)
		return priv, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	fmt.Printf("generating DGK-%d key pair...\n", keyBits)
	priv, err := ahe.GenerateDGK(keyBits, 64)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, ahe.MarshalDGKPrivateKey(priv), 0o600); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".pub", ahe.MarshalDGKPublicKey(&priv.DGKPublicKey), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s (private, 0600) and %s.pub (distribute to shufflers and clients)\n", path, path)
	return priv, nil
}

func loadPublicKey(path string) (ahe.PublicKey, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pub, err := ahe.UnmarshalDGKPublicKey(blob)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return pub, nil
}

// runAnalyzer is the `shuffled analyzer` subcommand.
func runAnalyzer(args []string) {
	fs := flag.NewFlagSet("shuffled analyzer", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7900", "analyzer listen address")
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	nr := fs.Int("nr", 24, "joint fake reports per collection")
	keyPath := fs.String("key", "peos.key", "DGK private-key file (created on first run)")
	keyBits := fs.Int("keybits", 1024, "DGK modulus bits when generating (paper deploys 3072)")
	n := fs.Int("n", 400, "users per collection round")
	collections := fs.Int("collections", 1, "collection rounds to drive")
	dataDir := fs.String("data-dir", "", "durable state directory (one checkpoint per sealed collection); empty runs in-memory")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-phase collect timeout")
	retries := fs.Int("retry-attempts", 1, "attempts per collection round (>1 enables abort-and-retry self-healing)")
	of := addOracleFlags(fs)
	fs.Parse(args)

	fo, err := of.build()
	if err != nil {
		log.Fatal(err)
	}
	topo, err := parseTopology(*shufflers, *listen)
	if err != nil {
		log.Fatal(err)
	}
	priv, err := loadOrCreateKey(*keyPath, *keyBits)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.AnalyzerConfig{
		Topology:       topo,
		FO:             fo,
		NR:             *nr,
		Priv:           priv,
		DataDir:        *dataDir,
		CollectTimeout: *timeout,
		Retry:          cluster.RetryPolicy{Attempts: *retries},
	}
	a, err := cluster.NewAnalyzer(cfg)
	if *dataDir != "" && errors.Is(err, store.ErrExists) {
		a, err = cluster.RecoverAnalyzer(cfg)
		if err == nil {
			reals, fakes := a.Totals()
			fmt.Printf("recovered durable state from %s: %d collections sealed (%d reports, %d fakes)\n",
				*dataDir, a.Collections(), reals, fakes)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Printf("analyzer listening on %s, waiting for %d shufflers\n", a.Addr(), topo.R())

	for a.Collections() < *collections {
		c := a.Collections()
		fmt.Printf("collection %d: sealing at n=%d (flush your client first)\n", c, *n)
		col, err := a.Collect(*n)
		if err != nil {
			log.Fatalf("collection %d: %v", c, err)
		}
		top := 8
		if top > len(col.Estimates) {
			top = len(col.Estimates)
		}
		fmt.Printf("collection %d sealed: %d users + %d fakes, est[:%d] = %.4f\n",
			col.Collection, col.Reports, col.Fakes, top, col.Estimates[:top])
	}
	reals, fakes := a.Totals()
	fmt.Printf("done: %d collections, %d reports, %d fakes; cumulative est[0] = %.4f\n",
		a.Collections(), reals, fakes, a.Estimates()[0])
}

// runShuffler is the `shuffled shuffler` subcommand.
func runShuffler(args []string) {
	fs := flag.NewFlagSet("shuffled shuffler", flag.ExitOnError)
	index := fs.Int("index", 0, "this shuffler's role id in [0, R)")
	listen := fs.String("listen", "", "listen address (defaults to the -shufflers entry for -index)")
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	analyzer := fs.String("analyzer", "127.0.0.1:7900", "analyzer address")
	nr := fs.Int("nr", 24, "joint fake reports per collection")
	keyPath := fs.String("key", "peos.key.pub", "analyzer's DGK public-key file")
	idle := fs.Duration("idle-timeout", 2*time.Minute, "drop client connections silent past this (0 = never)")
	sealTimeout := fs.Duration("seal-timeout", 5*time.Minute, "per-collection wait and peer I/O bound (0 = none)")
	fs.Parse(args)

	topo, err := parseTopology(*shufflers, *analyzer)
	if err != nil {
		log.Fatal(err)
	}
	if *listen != "" && *index >= 0 && *index < len(topo.Shufflers) {
		topo.Shufflers[*index] = *listen
	}
	pub, err := loadPublicKey(*keyPath)
	if err != nil {
		log.Fatal(err)
	}
	sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
		Index:       *index,
		Topology:    topo,
		NR:          *nr,
		Pub:         pub,
		Source:      secretshare.Crypto,
		IdleTimeout: *idle,
		SealTimeout: *sealTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shuffler %d listening on %s (analyzer %s, %d fakes/round)\n",
		*index, sh.Addr(), topo.Analyzers[0], *nr)
	if err := sh.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("analyzer closed the control link; shuffler exiting")
}

// runClient is the `shuffled client` subcommand: a collector gateway
// reporting one synthetic population into one collection round.
func runClient(args []string) {
	fs := flag.NewFlagSet("shuffled client", flag.ExitOnError)
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	analyzer := fs.String("analyzer", "127.0.0.1:7900", "analyzer address (topology completeness only)")
	keyPath := fs.String("key", "peos.key.pub", "analyzer's DGK public-key file")
	n := fs.Int("n", 400, "users to report (indices base..base+n-1)")
	base := fs.Int("base", 0, "first user index this client covers")
	collection := fs.Int("collection", 0, "collection round to report into")
	seed := fs.Uint64("seed", 1, "seed for the synthetic population and LDP randomness")
	retries := fs.Int("retry-attempts", 1, "attempts per shuffler connection (>1 enables reconnect-and-resubmit)")
	of := addOracleFlags(fs)
	fs.Parse(args)

	fo, err := of.build()
	if err != nil {
		log.Fatal(err)
	}
	topo, err := parseTopology(*shufflers, *analyzer)
	if err != nil {
		log.Fatal(err)
	}
	pub, err := loadPublicKey(*keyPath)
	if err != nil {
		log.Fatal(err)
	}
	values := dataset.Synthetic("demo", *n, fo.Domain(), 1.3, *seed).Values
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Topology: topo,
		FO:       fo,
		Pub:      pub,
		Source:   secretshare.Crypto,
		Retry:    cluster.RetryPolicy{Attempts: *retries},
	})
	if err != nil {
		log.Fatal(err)
	}
	cl.SetCollection(*collection)
	// One seeded stream for the demo population; real deployments give
	// every user device its own generator.
	if err := cl.SendValues(*base, values, rng.New(*seed+uint64(*collection))); err != nil {
		log.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reported %d users (indices %d..%d) into collection %d across %d shufflers\n",
		*n, *base, *base+*n-1, *collection, topo.R())
}
