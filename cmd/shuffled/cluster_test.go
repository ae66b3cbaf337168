package main

// End-to-end test of the role subcommands: the analyzer, two
// shufflers, and a client run as goroutines exactly as four terminals
// would run the processes, including key generation and distribution
// through the -key files and a second, recovered analyzer run over the
// same -data-dir. Failures inside a role exit the test binary (the
// subcommands are mains); the assertions here are liveness and the
// durable round count.

import (
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"shuffledp/internal/ahe"
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

func TestRoleSubcommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	keyPath := filepath.Join(dir, "peos.key")
	dataDir := filepath.Join(dir, "state")
	addrs := freeAddrs(t, 3)
	analyzerAddr, sh0Addr, sh1Addr := addrs[0], addrs[1], addrs[2]
	shufflers := sh0Addr + "," + sh1Addr

	runRound := func(collections, clientCollection int) {
		analyzerDone := make(chan struct{})
		go func() {
			defer close(analyzerDone)
			runAnalyzer([]string{
				"-listen", analyzerAddr, "-shufflers", shufflers,
				"-key", keyPath, "-keybits", "512",
				"-oracle", "grr", "-d", "8", "-nr", "6",
				"-n", "80", "-collections", strconv.Itoa(collections),
				"-data-dir", dataDir,
				"-timeout", "30s",
			})
		}()
		waitFile(t, keyPath+".pub")
		shufflerDone := make(chan struct{}, 2)
		for _, args := range [][]string{
			// Index 0 exercises the explicit -listen override.
			{"-index", "0", "-listen", sh0Addr, "-shufflers", shufflers, "-analyzer", analyzerAddr,
				"-key", keyPath + ".pub", "-nr", "6", "-seal-timeout", "30s"},
			{"-index", "1", "-shufflers", shufflers, "-analyzer", analyzerAddr,
				"-key", keyPath + ".pub", "-nr", "6", "-seal-timeout", "30s"},
		} {
			args := args
			go func() {
				runShuffler(args)
				shufflerDone <- struct{}{}
			}()
		}
		runClient([]string{
			"-shufflers", shufflers, "-analyzer", analyzerAddr,
			"-key", keyPath + ".pub", "-oracle", "grr", "-d", "8",
			"-n", "80", "-collection", strconv.Itoa(clientCollection), "-seed", "5",
		})
		for _, ch := range []<-chan struct{}{analyzerDone, shufflerDone, shufflerDone} {
			select {
			case <-ch:
			case <-time.After(60 * time.Second):
				t.Fatal("a role did not finish")
			}
		}
	}

	// Round 0: fresh key pair, fresh durable state.
	runRound(1, 0)
	// Round 1: the analyzer reloads the key file and RECOVERS the data
	// directory (collection 0 already sealed), then drives collection 1.
	runRound(2, 1)

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
}

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
}
