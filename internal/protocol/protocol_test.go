package protocol

import (
	"math"
	"strings"
	"sync"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

var (
	keyOnce sync.Once
	key64   *ahe.DGKPrivateKey
	keyErr  error
)

// dgk64 returns a shared DGK key with the Z_{2^64} plaintext space PEOS
// requires.
func dgk64(t testing.TB) *ahe.DGKPrivateKey {
	t.Helper()
	keyOnce.Do(func() { key64, keyErr = ahe.GenerateDGK(768, 64) })
	if keyErr != nil {
		t.Fatal(keyErr)
	}
	return key64
}

// skewedValues builds a small dataset with known frequencies.
func skewedValues(n, d int) ([]int, []float64) {
	values := make([]int, n)
	for i := range values {
		switch {
		case i < n/2:
			values[i] = 0
		case i < 3*n/4:
			values[i] = 1
		default:
			values[i] = 2 + i%(d-2)
		}
	}
	return values, ldp.TrueFrequencies(values, d)
}

func maxAbsError(truth, est []float64) float64 {
	worst := 0.0
	for i := range truth {
		if e := math.Abs(truth[i] - est[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func TestPEOSEndToEndGRR(t *testing.T) {
	key := dgk64(t)
	const n, d, r, nr = 600, 6, 3, 120
	values, truth := skewedValues(n, d)
	fo := ldp.NewGRR(d, 4)
	p, err := NewPEOS(fo, r, nr, key, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(values, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != n+nr {
		t.Fatalf("reports: %d, want %d", len(res.Reports), n+nr)
	}
	// Estimates noisy at n=600 but must track the truth.
	tol := 6*math.Sqrt(fo.Variance(n)*float64(n+nr)/float64(n)) + 0.05
	if e := maxAbsError(truth, res.Estimates); e > tol {
		t.Fatalf("max error %v > tol %v\ntruth %v\nest %v", e, tol, truth, res.Estimates)
	}
	// Accounting sanity: users sent r-1 plain shares + 1 ciphertext
	// each.
	users := res.Meter.Stats(PartyUsers)
	wantSent := int64(8*(r-1)*n + key.CiphertextBytes()*n)
	if users.SentBytes != wantSent {
		t.Fatalf("user bytes %d, want %d", users.SentBytes, wantSent)
	}
	// The server received all n+nr reports from r shufflers.
	srv := res.Meter.Stats(PartyServer)
	wantRecv := int64(8*(r-1)*(n+nr) + key.CiphertextBytes()*(n+nr))
	if srv.RecvBytes != wantRecv {
		t.Fatalf("server recv %d, want %d", srv.RecvBytes, wantRecv)
	}
}

func TestPEOSEndToEndSOLH(t *testing.T) {
	key := dgk64(t)
	const n, d, r, nr = 600, 16, 3, 90
	values, truth := skewedValues(n, d)
	fo := ldp.NewSOLH(d, 5, 4)
	p, err := NewPEOS(fo, r, nr, key, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(values, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	tol := 6*math.Sqrt(fo.Variance(n)*float64(n+nr)/float64(n)) + 0.05
	if e := maxAbsError(truth, res.Estimates); e > tol {
		t.Fatalf("max error %v > tol %v", e, tol)
	}
}

func TestPEOSShufflesReports(t *testing.T) {
	key := dgk64(t)
	const n, d, r = 400, 4, 3
	// All users hold distinct block values so order is detectable:
	// user i reports value i/(n/d).
	values := make([]int, n)
	for i := range values {
		values[i] = i / (n / d)
	}
	fo := ldp.NewGRR(d, 8) // high eps: reports ~ true values
	p, err := NewPEOS(fo, r, 0, key, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(values, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	// If the shuffle were the identity, reports would be sorted into
	// d blocks; count order inversions to detect shuffling.
	inversions := 0
	for i := 1; i < len(res.Reports); i++ {
		if res.Reports[i].Value < res.Reports[i-1].Value {
			inversions++
		}
	}
	if inversions < n/10 {
		t.Fatalf("only %d inversions — output looks unshuffled", inversions)
	}
}

func TestPEOSValidation(t *testing.T) {
	key := dgk64(t)
	fo := ldp.NewGRR(4, 1)
	src := rng.New(1)
	if _, err := NewPEOS(fo, 1, 10, key, src); err == nil {
		t.Error("r=1 accepted")
	}
	if _, err := NewPEOS(fo, 3, -1, key, src); err == nil {
		t.Error("negative nr accepted")
	}
	if _, err := NewPEOS(fo, 3, 10, nil, src); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := NewPEOS(fo, 3, 10, key, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewPEOS(ldp.NewRAP(4, 1), 3, 10, key, src); err == nil {
		t.Error("unary oracle accepted")
	}
	p, err := NewPEOS(fo, 3, 10, key, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil, rng.New(2)); err == nil {
		t.Error("empty user set accepted")
	}
}

// A protocol that mixes in uniform fakes estimates with Equation (6),
// so its constructor refuses, by name, an oracle without that
// estimator. Hadamard is the row that matters: it has a word encoding,
// so it used to be accepted and then panic in the estimator after the
// whole shuffle and reveal had run.
func TestConstructorsRefuseOraclesWithoutFakeEstimator(t *testing.T) {
	key := dgk64(t)
	for _, tc := range []struct {
		fo ldp.FrequencyOracle
		ok bool
	}{
		{ldp.NewHadamard(16, 2), false},
		{ldp.NewRAP(16, 1), false},
		{ldp.NewOUE(16, 1), false},
		{ldp.NewAUE(16, 1, 1e-6, 1000), false},
		{ldp.NewGRR(16, 2), true},
		{ldp.NewOLH(16, 2), true},
		{ldp.NewSOLH(16, 4, 2), true},
	} {
		_, errPEOS := NewPEOS(tc.fo, 2, 4, key, rng.New(1))
		_, errSS := NewSS(tc.fo, 2, 4)
		for name, err := range map[string]error{"NewPEOS": errPEOS, "NewSS": errSS} {
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s(%s): %v", name, tc.fo.Name(), err)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "oracle "+tc.fo.Name()+" ")):
				t.Errorf("%s(%s): err = %v, want a refusal naming the oracle", name, tc.fo.Name(), err)
			}
		}
	}
}

func TestPEOSRejectsNarrowPlaintext(t *testing.T) {
	// PEOS needs Z_{2^64}; a 32-bit plaintext key must be rejected.
	key32, err := ahe.GenerateDGK(768, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPEOS(ldp.NewGRR(4, 1), 3, 10, key32, rng.New(1)); err == nil {
		t.Fatal("32-bit plaintext key accepted")
	}
}

func TestSSEndToEnd(t *testing.T) {
	const n, d, r, nr = 3000, 8, 3, 300
	values, truth := skewedValues(n, d)
	fo := ldp.NewGRR(d, 4)
	s, err := NewSS(fo, r, nr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(values, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != n+(nr/r)*r {
		t.Fatalf("reports: %d", len(res.Reports))
	}
	tol := 6*math.Sqrt(fo.Variance(n)) + 0.03
	if e := maxAbsError(truth, res.Estimates); e > tol {
		t.Fatalf("max error %v > tol %v", e, tol)
	}
	// Onion sizing: users' batch is n * (payload + (r+1) layers).
	users := res.Meter.Stats(PartyUsers)
	wantUser := int64(n * (32 + (r+1)*97))
	if users.SentBytes != wantUser {
		t.Fatalf("user bytes %d, want %d", users.SentBytes, wantUser)
	}
}

// The shufflers' fake reports must follow the caller's seed: a constant
// fake stream is a fixed offset on every estimate that never averages
// out over trials (Equation 6 subtracts the fakes' expected mass, not
// their realised one), and it makes runs at different seeds share their
// shuffler randomness. GRR at eps = 20 reports the true value with
// overwhelming probability, so the shuffled reports minus the known
// values is exactly the multiset of fakes.
func TestSSFakesFollowTheSeed(t *testing.T) {
	const n, d, r, nr = 40, 16, 3, 64
	values := make([]int, n)
	for i := range values {
		values[i] = i % d
	}
	fo := ldp.NewGRR(d, 20)
	fakes := func(seed uint64) [d]int {
		s, err := NewSS(fo, r, nr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(values, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		var hist [d]int
		for _, rep := range res.Reports {
			hist[rep.Value]++
		}
		total := 0
		for _, v := range values {
			hist[v]--
		}
		for v, c := range hist {
			if c < 0 {
				t.Fatalf("seed %d: value %d reported fewer times than users hold it", seed, v)
			}
			total += c
		}
		if total != (nr/r)*r {
			t.Fatalf("seed %d: %d fakes, want %d", seed, total, (nr/r)*r)
		}
		return hist
	}
	if a, b := fakes(1), fakes(1); a != b {
		t.Fatalf("same seed, different fakes:\n%v\n%v", a, b)
	}
	if a, b := fakes(1), fakes(2); a == b {
		t.Fatalf("seeds 1 and 2 injected the same fake multiset %v", a)
	}
}

func TestSSWithSOLH(t *testing.T) {
	const n, d, r, nr = 3000, 20, 2, 200
	values, truth := skewedValues(n, d)
	fo := ldp.NewSOLH(d, 6, 4)
	s, err := NewSS(fo, r, nr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(values, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	tol := 6*math.Sqrt(fo.Variance(n)) + 0.03
	if e := maxAbsError(truth, res.Estimates); e > tol {
		t.Fatalf("max error %v > tol %v", e, tol)
	}
}

func TestSSValidation(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	if _, err := NewSS(fo, 0, 10); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := NewSS(fo, 3, -5); err == nil {
		t.Error("negative nr accepted")
	}
	if _, err := NewSS(ldp.NewAUE(4, 1, 1e-9, 100), 3, 0); err == nil {
		t.Error("AUE accepted")
	}
	s, err := NewSS(fo, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil, rng.New(1)); err == nil {
		t.Error("empty user set accepted")
	}
}

func TestSpotCheckDetectsTampering(t *testing.T) {
	fo := ldp.NewGRR(16, 2)
	sc, err := NewSpotCheck(fo)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	var planted []ldp.Report
	for i := 0; i < 20; i++ {
		rep := fo.Randomize(i%16, r)
		planted = append(planted, sc.Plant(rep))
	}
	// Honest batch: planted + other reports.
	batch := append([]ldp.Report(nil), planted...)
	for i := 0; i < 100; i++ {
		batch = append(batch, fo.Randomize(i%16, r))
	}
	if missing := sc.Verify(batch); missing != 0 {
		t.Fatalf("honest batch flagged: %d missing", missing)
	}
	// Tampered batch: drop 5 planted reports.
	tampered := append([]ldp.Report(nil), planted[5:]...)
	if missing := sc.Verify(tampered); missing != 5 {
		t.Fatalf("missing = %d, want 5", missing)
	}
}

func TestSpotCheckMultiplicity(t *testing.T) {
	fo := ldp.NewGRR(4, 1)
	sc, _ := NewSpotCheck(fo)
	rep := ldp.Report{Value: 2}
	sc.Plant(rep)
	sc.Plant(rep)
	// One copy present, one missing.
	if missing := sc.Verify([]ldp.Report{rep}); missing != 1 {
		t.Fatalf("missing = %d, want 1", missing)
	}
}
