package cluster_test

// The enumerated fault test: instead of sampling a seeded fault
// schedule, a recording pass logs every I/O operation of a clean
// 2-shuffler, 2-collection round on every connection the roles dial,
// and each row of the enumeration then replays the round with exactly
// one planned fault — a reset at the first, middle and last byte of
// every recorded operation, a refused dial per connection, and per link
// a reset that also tears the link's first replacement connection (a
// fault during healing). Every row must heal without intervention and
// hold the same invariants, each asserted by name.

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/faultnet"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
)

// The enumerated round: r = 2, GRR d = 8, n = 20, nr = 2, two
// collections, each phase bounded at 2 s so a row that regresses fails
// in bounded time.
const (
	faultR        = 2
	faultD        = 8
	faultN        = 20
	faultNR       = 2
	faultFakeSeed = 401
	faultRounds   = 2
	faultTimeout  = 2 * time.Second
)

// pair names one dial stream: the dialing role and the role it dials.
// The k-th connection of a stream is the k-th dial, refused or not.
type pair struct{ from, to string }

func (p pair) String() string { return p.from + "-" + p.to }

// connRef is one connection of a run: its stream and ordinal.
type connRef struct {
	pair
	conn int
}

func (c connRef) String() string { return fmt.Sprintf("%s.%d", c.pair, c.conn) }

// tapConn logs the byte count of every I/O operation that moved bytes,
// until its run freezes the log: a write when it starts, a read when
// it returns, so an operation waiting on the connection across a write
// in the other direction — a shuffler's control reader across its
// vector write — is logged after the write that caused its bytes.
type tapConn struct {
	net.Conn
	frozen *atomic.Bool
	mu     sync.Mutex
	ops    []int
}

func (c *tapConn) log(n int) {
	if n > 0 && !c.frozen.Load() {
		c.mu.Lock()
		c.ops = append(c.ops, n)
		c.mu.Unlock()
	}
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log(n)
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.log(len(p))
	return c.Conn.Write(p)
}

// helloListener counts, per remote address, the bytes the analyzer has
// read off each connection it accepted.
type helloListener struct {
	net.Listener
	mu   sync.Mutex
	read map[string]*atomic.Int64
}

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (l *helloListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.read[conn.RemoteAddr().String()] = n
	l.mu.Unlock()
	return countedConn{Conn: conn, n: n}, nil
}

func (l *helloListener) readFrom(addr string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.read[addr]; n != nil {
		return n.Load()
	}
	return 0
}

// faultRow is one row of the enumeration: the faults planned for one
// connection and, in the compound rows, for its first replacement.
type faultRow struct {
	name   string
	at     connRef
	fault  faultnet.Fault
	replay faultnet.Fault // conn at.conn+1; zero = none
}

func (r faultRow) planned() (resets, refusals int) {
	for _, f := range []faultnet.Fault{r.fault, r.replay} {
		if f.Refuse {
			refusals++
		}
		if f.ResetAfter > 0 {
			resets++
		}
	}
	return resets, refusals
}

// faultRun is one run of the round: every dial goes through it, tapped,
// and through the row's fault network for the faulted stream.
type faultRun struct {
	roles  map[string]string // address -> role
	row    *faultRow
	net    *faultnet.Network
	frozen atomic.Bool // the taps stop logging

	mu    sync.Mutex
	conns map[pair][]*tapConn // nil entries are refused dials
}

func (fr *faultRun) dialer(from string) cluster.DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		p := pair{from: from, to: fr.roles[addr]}
		var conn net.Conn
		var err error
		if fr.row != nil && p == fr.row.at.pair {
			conn, err = fr.net.Dial(addr, timeout)
		} else {
			conn, err = net.DialTimeout("tcp", addr, timeout)
		}
		var tc *tapConn
		if err == nil {
			tc = &tapConn{Conn: conn, frozen: &fr.frozen}
			conn = tc
		}
		fr.mu.Lock()
		fr.conns[p] = append(fr.conns[p], tc)
		fr.mu.Unlock()
		return conn, err
	}
}

// linked reports whether every shuffler's newest analyzer connection
// carries no planned reset and its hello has reached the analyzer: no
// shuffler is between a reset and the redial that heals it, so closing
// the analyzer now is the orderly close every Run must take cleanly.
func (fr *faultRun) linked(ln *helloListener) bool {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for j := 0; j < faultR; j++ {
		p := pair{from: shufflerRole(j), to: "analyzer"}
		conns := fr.conns[p]
		k := len(conns) - 1
		if k < 0 || conns[k] == nil {
			return false
		}
		if row := fr.row; row != nil && p == row.at.pair &&
			((k == row.at.conn && row.fault.ResetAfter > 0) || (k == row.at.conn+1 && row.replay.ResetAfter > 0)) {
			return false
		}
		if ln.readFrom(conns[k].LocalAddr().String()) < helloBytes {
			return false
		}
	}
	return true
}

// helloBytes is a shuffler hello's length on the wire: the 8-byte frame
// header and the one-byte index.
const helloBytes = 9

func shufflerRole(j int) string { return fmt.Sprintf("s%d", j) }

// faultEnv holds what every row shares: the key, the oracle, each
// collection's values and the in-process reference estimates.
type faultEnv struct {
	priv   *ahe.DGKPrivateKey
	fo     ldp.FrequencyOracle
	values [][]int
	ref    [][]float64
	cum    []float64
}

func newFaultEnv(t *testing.T) *faultEnv {
	env := &faultEnv{priv: sharedKey(t), fo: ldp.NewGRR(faultD, 2)}
	p, err := protocol.NewPEOS(env.fo, faultR, faultNR, env.priv, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	p.FakeSource = refFakeSource(faultFakeSeed, faultR)
	var all []ldp.Report
	for round := 0; round < faultRounds; round++ {
		values := synthValues(faultN, faultD, 410+uint64(round))
		res, err := p.Run(values, rng.New(420+uint64(round)))
		if err != nil {
			t.Fatal(err)
		}
		env.values = append(env.values, values)
		env.ref = append(env.ref, res.Estimates)
		all = append(all, res.Reports...)
	}
	env.cum = protocol.Estimate(env.fo, all, faultRounds*faultN, faultRounds*faultNR)
	return env
}

// run drives both collections with row's faults planned (nil = the
// clean recording pass), asserts the row's invariants, and returns the
// run's tapped connections.
func (env *faultEnv) run(t *testing.T, row *faultRow) map[pair][]*tapConn {
	baseline := runtime.NumGoroutine()
	topo, slns, aln := bindTopology(t, faultR)
	fr := &faultRun{row: row, roles: map[string]string{topo.Analyzers[0]: "analyzer"}, conns: map[pair][]*tapConn{}}
	for j, addr := range topo.Shufflers {
		fr.roles[addr] = shufflerRole(j)
	}
	if row != nil {
		fr.net = faultnet.New(faultnet.Config{Plan: func(conn int) faultnet.Fault {
			switch conn {
			case row.at.conn:
				return row.fault
			case row.at.conn + 1:
				return row.replay
			}
			return faultnet.Fault{}
		}})
	}
	ln := &helloListener{Listener: aln, read: map[string]*atomic.Int64{}}
	ledger := testLedger(t)
	analyzer, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
		Topology:       topo,
		Listener:       ln,
		FO:             env.fo,
		NR:             faultNR,
		Priv:           env.priv,
		Ledger:         ledger,
		CollectTimeout: faultTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer analyzer.Close()
	shufflers, runErr := startShufflers(t, topo, slns, faultNR, env.priv, faultFakeSeed, func(j int, cfg *cluster.ShufflerConfig) {
		cfg.SealTimeout = faultTimeout
		cfg.Dial = fr.dialer(shufflerRole(j))
	})
	cl, err := cluster.NewClient(cluster.ClientConfig{
		Topology: topo,
		FO:       env.fo,
		Pub:      ahe.PublicKey(env.priv),
		Source:   rng.New(3),
		Dial:     fr.dialer("client"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for round := 0; round < faultRounds; round++ {
		cl.SetCollection(round)
		if err := cl.SendValues(0, env.values[round], rng.New(420+uint64(round))); err != nil {
			t.Fatalf("collection %d send: %v", round, err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("collection %d flush: %v", round, err)
		}
		col, err := analyzer.Collect(faultN)
		if err != nil && !reflect.DeepEqual(col, cluster.Collection{}) {
			t.Fatalf("collectNeverReturnsBoth: collection %d returned %+v and %v", round, col, err)
		}
		if err != nil {
			t.Fatalf("healed: collection %d: %v", round, err)
		}
		if !estimatesEqual(col.Estimates, env.ref[round]) {
			t.Fatalf("bitIdentical: collection %d:\n net %v\n ref %v", round, col.Estimates, env.ref[round])
		}
	}
	if !estimatesEqual(analyzer.Estimates(), env.cum) {
		t.Fatalf("bitIdentical: cumulative:\n net %v\n ref %v", analyzer.Estimates(), env.cum)
	}
	if got := epochsPaid(t, ledger); got != faultRounds {
		t.Fatalf("chargedOncePerCollection: the ledger paid for %d collections, want %d", got, faultRounds)
	}
	if row != nil {
		resets, refusals := row.planned()
		for deadline := time.Now().Add(faultTimeout); ; time.Sleep(2 * time.Millisecond) {
			st := fr.net.Stats()
			if st.Resets == resets && st.Refused == refusals {
				break
			}
			if time.Now().After(deadline) {
				fr.mu.Lock()
				var ops [][]int
				for _, c := range fr.conns[row.at.pair] {
					if c != nil {
						ops = append(ops, c.ops)
					}
				}
				fr.mu.Unlock()
				t.Fatalf("faultFired: %+v, want %d reset(s) and %d refusal(s); %s carried %v", st, resets, refusals, row.at.pair, ops)
			}
		}
	}
	waitFor(t, "shufflersLinked", func() bool { return fr.linked(ln) })
	for j, errc := range runErr {
		select {
		case err := <-errc:
			t.Fatalf("runUntilClose: shuffler %d's Run returned %v before the analyzer closed", j, err)
		default:
		}
	}
	if row == nil {
		// The recording is the round's traffic: it ends once every
		// shuffler has read the last done frame (and so pruned its
		// buffers). The goodbye Close sends is teardown: a fault in it
		// could only fire after the faultFired check.
		waitFor(t, "doneRead", func() bool {
			for _, sh := range shufflers {
				if sh.BufferedShares() != 0 {
					return false
				}
			}
			return true
		})
		fr.frozen.Store(true)
	}
	analyzer.Close()
	for j, errc := range runErr {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("runUntilClose: shuffler %d's Run returned %v after the analyzer closed", j, err)
			}
		case <-time.After(testTimeout):
			t.Fatalf("runUntilClose: shuffler %d's Run outlived the analyzer", j)
		}
	}
	cl.Close()
	for _, sh := range shufflers {
		sh.Close()
	}
	waitFor(t, "goroutinesAtBaseline", func() bool { return runtime.NumGoroutine() <= baseline })
	return fr.conns
}

// enumerate turns the clean run's operation log into the rows. Per
// connection: a reset after the first byte, after the middle byte and
// before the last byte of every operation (a one-byte operation is
// reset right after it), a refused dial, and a reset in the middle of
// the longest operation that also resets the replacement connection in
// the middle of its first operation.
func enumerate(clean map[pair][]*tapConn) []faultRow {
	var refs []connRef
	for p, conns := range clean {
		for k := range conns {
			refs = append(refs, connRef{pair: p, conn: k})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].String() < refs[j].String() })
	var rows []faultRow
	for _, at := range refs {
		ops := clean[at.pair][at.conn].ops
		seen := map[int]bool{}
		start, longest, longestAt := 0, 0, 0
		for _, n := range ops {
			for _, b := range []int{start + 1, start + (n+1)/2, start + max(n-1, 1)} {
				if !seen[b] {
					seen[b] = true
					rows = append(rows, faultRow{name: fmt.Sprintf("%s/reset%d", at, b), at: at, fault: faultnet.Fault{ResetAfter: b}})
				}
			}
			if n > longest {
				longest, longestAt = n, start
			}
			start += n
		}
		rows = append(rows, faultRow{name: fmt.Sprintf("%s/refuse", at), at: at, fault: faultnet.Fault{Refuse: true}})
		mid, hello := longestAt+(longest+1)/2, (ops[0]+1)/2
		rows = append(rows, faultRow{
			name:   fmt.Sprintf("%s/reset%d-then%d", at, mid, hello),
			at:     at,
			fault:  faultnet.Fault{ResetAfter: mid},
			replay: faultnet.Fault{ResetAfter: hello},
		})
	}
	return rows
}

// Every single fault the enumeration names heals: both collections seal
// bit-identical to protocol.PEOS.Run, each is charged once, Collect
// never pairs a collection with an error, every shuffler's Run lasts
// until the analyzer closes and then returns nil, no goroutine leaks,
// and the planned fault fired.
func TestEnumeratedFaults(t *testing.T) {
	env := newFaultEnv(t)
	// One pool reference for the whole test keeps the key's randomizer
	// pool warm across rows instead of refilling it per cluster.
	defer ahe.PublicKey(env.priv).StartRandomizerPool()()

	clean := env.run(t, nil)
	var links []string
	ops := 0
	for p, conns := range clean {
		for k, c := range conns {
			links = append(links, connRef{pair: p, conn: k}.String())
			ops += len(c.ops)
			t.Logf("%s: %v", connRef{pair: p, conn: k}, c.ops)
		}
	}
	sort.Strings(links)
	want := []string{"client-s0.0", "client-s1.0", "s0-analyzer.0", "s1-analyzer.0", "s1-s0.0", "s1-s0.1"}
	if fmt.Sprint(links) != fmt.Sprint(want) {
		t.Fatalf("the clean round dialed %v, want %v", links, want)
	}
	rows := enumerate(clean)
	t.Logf("%d connections, %d operations, %d rows", len(links), ops, len(rows))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { env.run(t, &row) })
	}
}
