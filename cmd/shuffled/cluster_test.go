package main

// End-to-end test of the role subcommands: the analyzer, two
// shufflers, and a client run as goroutines exactly as four terminals
// would run the processes, including key generation and distribution
// through the -key files, the plan file beside them, and a second,
// recovered analyzer run over the same -data-dir. The assertions are
// the plan every role ran, what the analyzer's ledger charged, and the
// refusals of roles started against a missing or different plan.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/amplify"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
)

// freeAddrs reserves n distinct loopback addresses. The listeners are
// closed again so the roles can bind them — the tiny reuse window is
// fine for a test.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func waitFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// drillTargets are the §VI-D targets of the drill (and of the coverage
// census's): at n = 80 and d = 8 over 2 epochs they plan GRR with
// ε_l = 4 and n_r = 416, so each round shuffles hundreds of fakes.
var (
	drillTargets = []string{"-d", "8", "-n", "80", "-eps1", "4", "-eps2", "8", "-eps3", "8", "-delta", "1e-6", "-epochs", "2"}
	drillRq      = amplify.Requirements{Eps1: 4, Eps2: 8, Eps3: 8, D: 8, N: 80, Delta: 1e-6}
)

const drillEpochs = 2

func TestRoleSubcommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	keyPath := filepath.Join(dir, "peos.key")
	dataDir := filepath.Join(dir, "state")
	addrs := freeAddrs(t, 3)
	analyzerAddr, sh0Addr, sh1Addr := addrs[0], addrs[1], addrs[2]
	shufflers := sh0Addr + "," + sh1Addr
	analyzerArgs := func(extra ...string) []string {
		args := []string{
			"-listen", analyzerAddr, "-shufflers", shufflers,
			"-key", keyPath, "-keybits", "512",
			"-data-dir", dataDir, "-timeout", "30s",
		}
		return append(append(args, drillTargets...), extra...)
	}

	want, per, err := amplify.PlanContinual(drillRq, drillEpochs)
	if err != nil {
		t.Fatal(err)
	}
	if want.NR < 100 {
		t.Fatalf("the drill's targets plan %s: want n_r in the hundreds", want)
	}

	type analyzerResult struct {
		plan   amplify.Plan
		ledger *budget.Ledger
		sealed []cluster.Collection
		err    error
	}
	runRound := func(collections, clientCollection int) (analyzerResult, string) {
		var out bytes.Buffer
		analyzerDone := make(chan analyzerResult, 1)
		go func() {
			var r analyzerResult
			r.plan, r.ledger, r.sealed, r.err = runAnalyzer(analyzerArgs("-collections", strconv.Itoa(collections)), &out)
			analyzerDone <- r
		}()
		waitFile(t, keyPath+".pub")
		shufflerDone := make(chan error, 2)
		for _, args := range [][]string{
			// Index 0 exercises the explicit -listen override.
			{"-index", "0", "-listen", sh0Addr, "-shufflers", shufflers, "-analyzer", analyzerAddr,
				"-key", keyPath + ".pub", "-seal-timeout", "30s"},
			{"-index", "1", "-shufflers", shufflers, "-analyzer", analyzerAddr,
				"-key", keyPath + ".pub", "-seal-timeout", "30s"},
		} {
			go func() { shufflerDone <- runShuffler(args, io.Discard) }()
		}
		if err := runClient([]string{
			"-shufflers", shufflers, "-analyzer", analyzerAddr, "-key", keyPath + ".pub",
			"-n", "80", "-collection", strconv.Itoa(clientCollection), "-seed", "5",
		}, io.Discard); err != nil {
			t.Fatal(err)
		}
		var r analyzerResult
		select {
		case r = <-analyzerDone:
		case <-time.After(60 * time.Second):
			t.Fatal("the analyzer did not finish")
		}
		if r.err != nil {
			t.Fatalf("analyzer: %v\n%s", r.err, out.String())
		}
		for range 2 {
			select {
			case err := <-shufflerDone:
				if err != nil {
					t.Fatalf("shuffler: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("a shuffler did not finish")
			}
		}
		return r, out.String()
	}

	charged := regexp.MustCompile(`(?m)^collection (\d+) sealed: (\d+) users \+ (\d+) fakes, .*\(charged eps=(\S+), delta=(\S+)\)$`)
	check := func(r analyzerResult, text string, firstCollection int) {
		t.Helper()
		if r.plan != want {
			t.Errorf("analyzer ran %s, PlanContinual plans %s", r.plan, want)
		}
		if line := fmt.Sprintf("plan at n=80, d=8 over %d epochs (delta=1e-06): %s\n", drillEpochs, r.plan); !strings.Contains(text, line) {
			t.Errorf("output lacks the plan line %q:\n%s", line, text)
		}
		if got := amplify.PEOSEpsilons(r.plan.EpsL, r.plan.DPrime, 80, r.plan.NR, per.Delta).EpsC; got > per.Eps+1e-12 {
			t.Errorf("the plan gives eps=%v at n=80, above the per-collection charge %v", got, per.Eps)
		}
		if r.ledger.PerEpoch() != per {
			t.Errorf("the ledger charges %v per collection, the plan was solved for %v", r.ledger.PerEpoch(), per)
		}
		if got := r.ledger.MaxEpochs(); got != drillEpochs {
			t.Errorf("the ledger admits %d collections, want -epochs %d", got, drillEpochs)
		}
		printed := charged.FindAllStringSubmatch(text, -1)
		if len(r.sealed) != 1 || len(printed) != 1 {
			t.Fatalf("sealed %d collections, printed %d, want 1:\n%s", len(r.sealed), len(printed), text)
		}
		col, p := r.sealed[0], printed[0]
		if col.Collection != firstCollection || col.Reports != 80 || col.Fakes != want.NR {
			t.Errorf("sealed collection %d with %d users + %d fakes, want collection %d with 80 + %d",
				col.Collection, col.Reports, col.Fakes, firstCollection, want.NR)
		}
		if wantLine := []string{fmt.Sprint(col.Collection), "80", fmt.Sprint(want.NR), fmt.Sprintf("%.6g", per.Eps), fmt.Sprintf("%.3g", per.Delta)}; !slices.Equal(p[1:], wantLine) {
			t.Errorf("printed collection, users, fakes and charge %q, want %q", p[1:], wantLine)
		}
	}

	// Round 0: fresh key pair and plan, fresh durable state.
	r, text := runRound(1, 0)
	check(r, text, 0)
	// Round 1: the analyzer reloads the key file, replans identically and
	// RECOVERS the data directory (collection 0 already sealed, so its
	// ledger pays for it), then drives collection 1.
	r, text = runRound(2, 1)
	check(r, text, 1)
	spent := r.ledger.Spent()
	if spent.Eps > drillRq.Eps1*(1+1e-9) || spent.Delta > drillRq.Delta*(1+1e-9) {
		t.Errorf("two collections spent %v of the total (%v, %v)", spent, drillRq.Eps1, drillRq.Delta)
	}
	if line := fmt.Sprintf("ledger: spent (%.4g, %.3g) of (4, 1e-06)\n", spent.Eps, spent.Delta); !strings.Contains(text, line) {
		t.Errorf("output lacks %q:\n%s", line, text)
	}

	// The persisted private key must still parse and decrypt.
	blob, err := os.ReadFile(keyPath)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ahe.UnmarshalDGKPrivateKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	c, err := priv.Encrypt(42)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := priv.Decrypt(c); m != 42 {
		t.Fatalf("persisted key decrypts %d", m)
	}

	// Refusals, each before the role binds or runs a round: they return
	// at once, naming what is wrong.
	planBlob, err := os.ReadFile(keyPath + ".plan")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"replanned targets", keyPath + ".plan", analyzerArgs("-eps1", "3")},
		{"replanned domain", keyPath + ".plan", analyzerArgs("-d", "9")},
		{"collections past epochs", "-collections 3 exceeds -epochs 2", analyzerArgs("-collections", "3")},
	} {
		if _, _, _, err := runAnalyzer(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: analyzer returned %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	if after, err := os.ReadFile(keyPath + ".plan"); err != nil || !bytes.Equal(after, planBlob) {
		t.Errorf("a refused analyzer rewrote the plan file (err %v)", err)
	}
	// At 64 epochs exact composition affords each collection more than
	// eps1/64, which naive composition would not admit 64 times;
	// -collections 0 plans, writes the key and the plan, and collects
	// nothing.
	_, ledger, sealed, err := runAnalyzer([]string{
		"-listen", "127.0.0.1:0", "-shufflers", shufflers, "-keybits", "512",
		"-key", filepath.Join(t.TempDir(), "peos.key"),
		"-d", "8", "-n", "80", "-eps1", "4", "-eps2", "8", "-eps3", "8", "-delta", "1e-6",
		"-epochs", "64", "-collections", "0",
	}, io.Discard)
	if err != nil {
		t.Fatalf("at 64 epochs: %v", err)
	}
	if len(sealed) != 0 || ledger.MaxEpochs() != 64 || ledger.PerEpoch().Eps <= 4./64 {
		t.Errorf("at 64 epochs: sealed %d, the ledger admits %d collections of %v", len(sealed), ledger.MaxEpochs(), ledger.PerEpoch())
	}
	// A public key without its plan.
	lonePub := filepath.Join(t.TempDir(), "peos.key.pub")
	pubBlob, err := os.ReadFile(keyPath + ".pub")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lonePub, pubBlob, 0o644); err != nil {
		t.Fatal(err)
	}
	wantName := planPath(lonePub)
	if err := runShuffler([]string{"-shufflers", shufflers, "-analyzer", analyzerAddr, "-key", lonePub}, io.Discard); err == nil || !strings.Contains(err.Error(), wantName) {
		t.Errorf("shuffler without a plan returned %v, want a refusal naming %s", err, wantName)
	}
	if err := runClient([]string{"-shufflers", shufflers, "-analyzer", analyzerAddr, "-key", lonePub}, io.Discard); err == nil || !strings.Contains(err.Error(), wantName) {
		t.Errorf("client without a plan returned %v, want a refusal naming %s", err, wantName)
	}
}

// The topology parser, and the protocol flags the plan file replaced:
// no role takes an oracle, domain or mechanism parameter but the
// analyzer's domain.
func TestParseTopologyAndOracleFlags(t *testing.T) {
	if _, err := parseTopology("a", "c"); err == nil {
		t.Fatal("accepted a single shuffler address")
	}
	if _, err := parseTopology("a,b", " "); err == nil {
		t.Fatal("accepted an empty analyzer address")
	}
	topo, err := parseTopology(" a , b ,c", " anlz ")
	if err != nil {
		t.Fatal(err)
	}
	if topo.R() != 3 || topo.Shufflers[2] != "c" || len(topo.Analyzers) != 1 || topo.Analyzers[0] != "anlz" {
		t.Fatalf("parsed %+v", topo)
	}

	roles := map[string]func(args []string) error{
		"analyzer": func(args []string) error { _, _, _, err := runAnalyzer(args, io.Discard); return err },
		"shuffler": func(args []string) error { return runShuffler(args, io.Discard) },
		"client":   func(args []string) error { return runClient(args, io.Discard) },
	}
	for role, run := range roles {
		for _, f := range []string{"oracle", "d", "dprime", "epsl", "nr"} {
			if role == "analyzer" && f == "d" {
				continue
			}
			if err := run([]string{"-" + f, "2"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+f) {
				t.Errorf("shuffled %s -%s: %v, want an undefined flag", role, f, err)
			}
		}
	}
}
