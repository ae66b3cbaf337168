package main

// The role subcommands: `shuffled analyzer|shuffler|client` run ONE
// party of the PEOS security tier (internal/cluster) as its own
// process, so the paper's trust model — distinct machines per role —
// can be stood up for real:
//
//	# terminal 1: the analyzer plans, generates the key pair and drives rounds
//	shuffled analyzer -listen :7900 -shufflers :7901,:7902 -key peos.key \
//	         -d 16 -n 400 -eps1 4 -eps2 8 -eps3 8 -epochs 2 -collections 2 \
//	         -data-dir ./analyzer-state
//
//	# terminals 2, 3: one shuffler each (they only ever see the public
//	# key and the plan)
//	shuffled shuffler -index 0 -listen :7901 -shufflers :7901,:7902 \
//	         -analyzer :7900 -key peos.key.pub
//	shuffled shuffler -index 1 -listen :7902 -shufflers :7901,:7902 \
//	         -analyzer :7900 -key peos.key.pub
//
//	# terminal 4: a reporting client per collection round
//	shuffled client -shufflers :7901,:7902 -analyzer :7900 -key peos.key.pub \
//	         -n 400 -collection 0
//
// The analyzer takes the §VI-D targets, not mechanism parameters:
// -eps1 against the server, -eps2 against the server plus every other
// user, -eps3 against the server plus ⌈r/2⌉ or more shufflers, each a
// total over the -epochs collections of the same -n users, at -delta.
// It plans once (amplify.PlanContinual), which fixes the oracle, d′,
// ε_l and the fake count n_r, and writes the plan to -key with its
// extension .plan beside the public key. Shufflers and clients read
// the plan beside the -key they load, so they take no protocol flag
// and cannot pair a fake count or an ε_l with the wrong plan;
// distribute peos.key.plan with peos.key.pub. An analyzer restarted
// over the same key refuses targets that plan differently.
//
// The analyzer's ledger charges every collection the per-collection
// guarantee the plan was solved for, composed exactly against the
// total (eps1, delta), so it admits exactly -epochs collections;
// -collections, the rounds this run drives the analyzer to, may not
// exceed -epochs.
//
// The analyzer writes the private key to -key (0600) and the public
// half to -key.pub on first run and reloads them afterwards, so a
// restarted (recovered) analyzer keeps decrypting the cluster's
// ciphertexts. With -data-dir it seals each collection by writing one
// fsynced checkpoint of its cumulative counts — the decoded reports
// never reach the disk, so there is no fsync policy to choose — and a
// restart over the same directory resumes from the newest one, its
// ledger paid for what the directory holds sealed.
// Two bounds are constants, not flags: a role retries dialing a peer
// that is not listening yet for 10 s, and drops an inbound connection
// that sends no hello within 30 s. The analyzer is one node: it
// decrypts each round across all of its cores, so a bigger analyzer
// host is the way to decrypt faster. The cluster always heals, on one
// schedule that is not a flag either: the analyzer runs a failed round
// up to 6 times and a client redials a failed shuffler connection up to
// 5 times, backing off from 25 ms up to 250 ms, jittered. The
// analyzer's orderly exit sends each shuffler a goodbye, which ends its
// process; a shuffler that loses its link any other way redials.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/amplify"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
)

// planFile is what the analyzer writes beside its public key: the value
// domain and the plan made for it. Every role takes its protocol values
// from it.
type planFile struct {
	D    int
	Plan amplify.Plan
}

// oracle instantiates the planned frequency oracle.
func (pf planFile) oracle() ldp.FrequencyOracle {
	if pf.Plan.UseGRR {
		return ldp.NewGRR(pf.D, pf.Plan.EpsL)
	}
	return ldp.NewSOLH(pf.D, pf.Plan.DPrime, pf.Plan.EpsL)
}

// planPath names the plan file of a key pair: peos.key and
// peos.key.pub both have theirs at peos.key.plan.
func planPath(key string) string {
	return strings.TrimSuffix(key, ".pub") + ".plan"
}

// readPlan loads the plan beside key.
func readPlan(key string) (planFile, error) {
	path := planPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		return planFile{}, fmt.Errorf("reading the plan beside %s (the analyzer writes it with the key pair): %w", key, err)
	}
	var pf planFile
	if err := json.Unmarshal(blob, &pf); err != nil {
		return planFile{}, fmt.Errorf("loading %s: %w", path, err)
	}
	if p := pf.Plan; pf.D < 2 || p.DPrime < 2 || !(p.EpsL > 0) || p.NR < 0 {
		return planFile{}, fmt.Errorf("loading %s: not a plan (d=%d, %s)", path, pf.D, p)
	}
	return pf, nil
}

// writePlan puts pf beside key. The plan of a key that already exists
// is the one its shufflers and clients run, so there pf must equal it.
func writePlan(key string, pf planFile) error {
	if _, err := os.Stat(key); err == nil {
		old, err := readPlan(key)
		if err == nil {
			if old != pf {
				return fmt.Errorf("%s holds d=%d, %s, but these targets plan d=%d, %s: rerun with the targets that planned it, or start over with a new -key",
					planPath(key), old.D, old.Plan, pf.D, pf.Plan)
			}
			return nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	blob, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(planPath(key), append(blob, '\n'), 0o644)
}

// writeFile writes path by renaming a finished temporary file onto it,
// so a role that sees path never reads it half written.
func writeFile(path string, data []byte, perm os.FileMode) error {
	if err := os.WriteFile(path+".tmp", data, perm); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
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
func loadOrCreateKey(path string, keyBits int, out io.Writer) (*ahe.DGKPrivateKey, error) {
	if blob, err := os.ReadFile(path); err == nil {
		priv, err := ahe.UnmarshalDGKPrivateKey(blob)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		fmt.Fprintf(out, "loaded DGK key pair from %s\n", path)
		return priv, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	fmt.Fprintf(out, "generating DGK-%d key pair...\n", keyBits)
	priv, err := ahe.GenerateDGK(keyBits, 64)
	if err != nil {
		return nil, err
	}
	if err := writeFile(path, ahe.MarshalDGKPrivateKey(priv), 0o600); err != nil {
		return nil, err
	}
	if err := writeFile(path+".pub", ahe.MarshalDGKPublicKey(&priv.DGKPublicKey), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "wrote %s (private, 0600) and %s.pub and %s (distribute both to shufflers and clients)\n",
		path, path, planPath(path))
	return priv, nil
}

// loadPublicKey returns the public key at path and the plan beside it.
func loadPublicKey(path string) (ahe.PublicKey, planFile, error) {
	pf, err := readPlan(path)
	if err != nil {
		return nil, planFile{}, err
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, planFile{}, err
	}
	pub, err := ahe.UnmarshalDGKPublicKey(blob)
	if err != nil {
		return nil, planFile{}, fmt.Errorf("loading %s: %w", path, err)
	}
	return pub, pf, nil
}

// runAnalyzer is the `shuffled analyzer` subcommand. It returns the
// plan it ran, its ledger and the collections this run sealed.
func runAnalyzer(args []string, out io.Writer) (amplify.Plan, *budget.Ledger, []cluster.Collection, error) {
	fs := flag.NewFlagSet("shuffled analyzer", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7900", "analyzer listen address")
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	keyPath := fs.String("key", "peos.key", "DGK private-key file (created on first run; the plan is written beside it)")
	keyBits := fs.Int("keybits", 1024, "DGK modulus bits when generating (paper deploys 3072)")
	d := fs.Int("d", 16, "value domain size")
	n := fs.Int("n", 400, "users per collection round")
	eps1 := fs.Float64("eps1", 4, "total epsilon against the server, over all -epochs collections")
	eps2 := fs.Float64("eps2", 8, "total epsilon against the server plus every other user")
	eps3 := fs.Float64("eps3", 8, "total epsilon against the server plus ceil(r/2) or more shufflers")
	delta := fs.Float64("delta", 1e-9, "total DP failure probability")
	epochs := fs.Int("epochs", 1, "collections the budget covers")
	collections := fs.Int("collections", 1, "collection rounds to drive the analyzer to (at most -epochs)")
	dataDir := fs.String("data-dir", "", "durable state directory (one checkpoint per sealed collection); empty runs in-memory")
	timeout := fs.Duration("timeout", 5*time.Minute, "per-phase collect timeout")
	fail := func(err error) (amplify.Plan, *budget.Ledger, []cluster.Collection, error) {
		return amplify.Plan{}, nil, nil, err
	}
	if err := fs.Parse(args); err != nil {
		return fail(err)
	}
	if *collections > *epochs {
		return fail(fmt.Errorf("-collections %d exceeds -epochs %d: the budget covers only -epochs collections", *collections, *epochs))
	}

	topo, err := parseTopology(*shufflers, *listen)
	if err != nil {
		return fail(err)
	}

	plan, per, err := amplify.PlanContinual(amplify.Requirements{
		Eps1: *eps1, Eps2: *eps2, Eps3: *eps3, D: *d, N: *n, Delta: *delta,
	}, *epochs)
	if err != nil {
		return fail(fmt.Errorf("planning -eps1 %g -eps2 %g -eps3 %g over %d epochs: %w", *eps1, *eps2, *eps3, *epochs, err))
	}
	// The ledger charges the target the plan was solved for; refuse a
	// plan whose bound lands above it.
	if plan.Achieved.EpsC > per.Eps+1e-12 {
		return fail(fmt.Errorf("plan %s misses the per-collection eps %g", plan, per.Eps))
	}
	// PlanContinual splits (eps1, delta) exactly across -epochs, so the
	// ledger composes the per-collection guarantee back to the total at
	// -epochs.
	ledger, err := budget.NewLedger(composition.Guarantee{Eps: *eps1, Delta: *delta}, per)
	if err != nil {
		return fail(err)
	}
	if ledger.MaxEpochs() != *epochs {
		return fail(fmt.Errorf("the ledger admits %d collections of %v, not -epochs %d", ledger.MaxEpochs(), per, *epochs))
	}
	pf := planFile{D: *d, Plan: plan}
	fmt.Fprintf(out, "plan at n=%d, d=%d over %d epochs (delta=%.0e): %s\n", *n, *d, *epochs, *delta, plan)
	fmt.Fprintf(out, "budget ledger: total (%.4g, %.0e), per collection (%.6g, %.3g), exact composition admits %d collections\n",
		*eps1, *delta, per.Eps, per.Delta, ledger.MaxEpochs())

	// The plan goes down before a fresh key, so a shuffler that sees the
	// public key finds the plan beside it.
	if err := writePlan(*keyPath, pf); err != nil {
		return fail(err)
	}
	priv, err := loadOrCreateKey(*keyPath, *keyBits, out)
	if err != nil {
		return fail(err)
	}
	cfg := cluster.AnalyzerConfig{
		Topology:       topo,
		FO:             pf.oracle(),
		NR:             plan.NR,
		Priv:           priv,
		Ledger:         ledger,
		DataDir:        *dataDir,
		CollectTimeout: *timeout,
	}
	a, err := cluster.NewAnalyzer(cfg)
	if *dataDir != "" && errors.Is(err, store.ErrExists) {
		a, err = cluster.RecoverAnalyzer(cfg)
		if err == nil {
			reals, fakes := a.Totals()
			fmt.Fprintf(out, "recovered durable state from %s: %d collections sealed (%d reports, %d fakes)\n",
				*dataDir, a.Collections(), reals, fakes)
		}
	}
	if err != nil {
		return fail(err)
	}
	defer a.Close()
	fmt.Fprintf(out, "analyzer listening on %s, waiting for %d shufflers\n", a.Addr(), topo.R())

	var sealed []cluster.Collection
	for a.Collections() < *collections {
		c := a.Collections()
		fmt.Fprintf(out, "collection %d: sealing at n=%d (flush your client first)\n", c, *n)
		col, err := a.Collect(*n)
		if err != nil {
			return fail(fmt.Errorf("collection %d: %w", c, err))
		}
		sealed = append(sealed, col)
		top := min(8, len(col.Estimates))
		fmt.Fprintf(out, "collection %d sealed: %d users + %d fakes, est[:%d] = %.4f (charged eps=%.6g, delta=%.3g)\n",
			col.Collection, col.Reports, col.Fakes, top, col.Estimates[:top], per.Eps, per.Delta)
	}
	reals, fakes := a.Totals()
	spent := ledger.Spent()
	fmt.Fprintf(out, "ledger: spent (%.4g, %.3g) of (%.4g, %.0e)\n", spent.Eps, spent.Delta, *eps1, *delta)
	fmt.Fprintf(out, "done: %d collections, %d reports, %d fakes; cumulative est[0] = %.4f\n",
		a.Collections(), reals, fakes, a.Estimates()[0])
	return plan, ledger, sealed, nil
}

// runShuffler is the `shuffled shuffler` subcommand.
func runShuffler(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shuffled shuffler", flag.ContinueOnError)
	index := fs.Int("index", 0, "this shuffler's role id in [0, R)")
	listen := fs.String("listen", "", "listen address (defaults to the -shufflers entry for -index)")
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	analyzer := fs.String("analyzer", "127.0.0.1:7900", "analyzer address")
	keyPath := fs.String("key", "peos.key.pub", "analyzer's DGK public-key file (its plan sits beside it)")
	idle := fs.Duration("idle-timeout", 2*time.Minute, "drop client connections silent past this (0 = never)")
	sealTimeout := fs.Duration("seal-timeout", 5*time.Minute, "per-collection wait and peer I/O bound (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := parseTopology(*shufflers, *analyzer)
	if err != nil {
		return err
	}
	if *listen != "" && *index >= 0 && *index < len(topo.Shufflers) {
		topo.Shufflers[*index] = *listen
	}
	pub, pf, err := loadPublicKey(*keyPath)
	if err != nil {
		return err
	}
	sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
		Index:       *index,
		Topology:    topo,
		NR:          pf.Plan.NR,
		Pub:         pub,
		Source:      secretshare.Crypto,
		IdleTimeout: *idle,
		SealTimeout: *sealTimeout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "shuffler %d listening on %s (analyzer %s, %d fakes/round)\n",
		*index, sh.Addr(), topo.Analyzers[0], pf.Plan.NR)
	if err := sh.Run(); err != nil {
		return err
	}
	fmt.Fprintln(out, "the analyzer said goodbye; shuffler exiting")
	return nil
}

// runClient is the `shuffled client` subcommand: a collector gateway
// reporting one synthetic population into one collection round.
func runClient(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shuffled client", flag.ContinueOnError)
	shufflers := fs.String("shufflers", "", "comma-separated shuffler addresses, in role order")
	analyzer := fs.String("analyzer", "127.0.0.1:7900", "analyzer address (topology completeness only)")
	keyPath := fs.String("key", "peos.key.pub", "analyzer's DGK public-key file (its plan sits beside it)")
	n := fs.Int("n", 400, "users to report (indices base..base+n-1)")
	base := fs.Int("base", 0, "first user index this client covers")
	collection := fs.Int("collection", 0, "collection round to report into")
	seed := fs.Uint64("seed", 1, "seed for the synthetic population and LDP randomness")
	if err := fs.Parse(args); err != nil {
		return err
	}

	topo, err := parseTopology(*shufflers, *analyzer)
	if err != nil {
		return err
	}
	pub, pf, err := loadPublicKey(*keyPath)
	if err != nil {
		return err
	}
	fo := pf.oracle()
	values := dataset.Synthetic("demo", *n, fo.Domain(), 1.3, *seed).Values
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Topology: topo,
		FO:       fo,
		Pub:      pub,
		Source:   secretshare.Crypto,
	})
	if err != nil {
		return err
	}
	cl.SetCollection(*collection)
	// One seeded stream for the demo population; real deployments give
	// every user device its own generator.
	if err := cl.SendValues(*base, values, rng.New(*seed+uint64(*collection))); err != nil {
		return err
	}
	if err := cl.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "reported %d users (indices %d..%d) into collection %d across %d shufflers\n",
		*n, *base, *base+*n-1, *collection, topo.R())
	return nil
}
