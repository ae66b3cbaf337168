package shuffledp

// One benchmark per table/figure of the paper's evaluation (§VII), plus
// the ablation benches DESIGN.md calls out. Each bench regenerates its
// artifact at a laptop scale (same d and skew, n scaled down; see
// DESIGN.md §2) and reports the headline quantity as a custom metric so
// `go test -bench=.` doubles as a shape check:
//
//	Table I   -> BenchmarkTable1Amplify
//	Figure 3  -> BenchmarkFigure3MSE        (metric: SOLH vs OLH MSE)
//	Table II  -> BenchmarkTable2Kosarak     (metric: optimal-d' MSE)
//	Figure 4  -> BenchmarkFigure4TreeHist   (metric: SOLH precision)
//	Table III -> BenchmarkTable3Protocols   (sub-bench per protocol)
//
// The cmd/ binaries print the full row-by-row artifacts, and the tracked
// performance numbers come from `go run ./benchmark` alone; these benches
// are shape checks and profiling entry points.

import (
	"net"
	"strconv"
	"sync"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/amplify"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ecies"
	"shuffledp/internal/experiment"
	"shuffledp/internal/ldp"
	"shuffledp/internal/oblivious"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/service"
)

const benchDelta = 1e-9

func BenchmarkTable1Amplify(b *testing.B) {
	epsLs := []float64{0.1, 0.2, 0.3, 0.4, 1, 2, 4}
	var rows []experiment.Table1Row
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows = experiment.Table1(epsLs, 1000000, benchDelta)
	}
	b.ReportMetric(rows[len(rows)-1].BBGN, "epsC@epsL=4")
}

func BenchmarkFigure3MSE(b *testing.B) {
	ds := dataset.Scaled(dataset.IPUMS, 20, 1)
	cfg := experiment.Figure3Config{
		EpsCs:   []float64{0.2, 0.6, 1.0},
		Trials:  3,
		Delta:   benchDelta,
		Methods: []string{"Base", "OLH", "SH", "SOLH", "RAP_R", "Lap"},
		Seed:    1,
	}
	b.ResetTimer()
	var points []experiment.CurvePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Figure3(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := points[len(points)-1]
	b.ReportMetric(last.MSE["SOLH"], "SOLH-MSE@1.0")
	b.ReportMetric(last.MSE["OLH"]/last.MSE["SOLH"], "OLH/SOLH")
}

func BenchmarkTable2Kosarak(b *testing.B) {
	ds := dataset.Scaled(dataset.Kosarak, 50, 2)
	cfg := experiment.Table2Config{
		EpsCs:   []float64{0.4, 0.8},
		FixedDs: []int{10, 1000},
		Trials:  3,
		Delta:   benchDelta,
		Seed:    2,
	}
	b.ResetTimer()
	var rows []experiment.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Table2(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].SOLH, "SOLH-MSE@0.8")
	b.ReportMetric(float64(rows[len(rows)-1].DPrime), "d'@0.8")
}

func BenchmarkFigure4TreeHist(b *testing.B) {
	ds := dataset.SyntheticStrings("aol-bench", 50000, 2000, 32, 1.05, 3)
	cfg := experiment.Figure4Config{
		EpsCs:   []float64{0.8},
		K:       16,
		Bits:    32,
		Round:   8,
		Trials:  1,
		Delta:   benchDelta,
		Methods: []string{"SOLH", "SH", "Lap"},
		Seed:    4,
	}
	b.ResetTimer()
	var points []experiment.Figure4Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiment.Figure4(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].Precision["SOLH"], "SOLH-precision")
}

// BenchmarkTable3Protocols times SS and PEOS in process. The tracked
// PEOS numbers are the peos_* workloads of `go run ./benchmark`; this
// benchmark is the protocol tier's pprof entry point:
//
//	go test -run '^$' -bench Table3Protocols/PEOS -cpuprofile /tmp/peos.prof .
func BenchmarkTable3Protocols(b *testing.B) {
	const n, nr, keyBits = 500, 50, 768
	values := make([]int, n)
	for i := range values {
		values[i] = i % 32
	}
	fo := ldp.NewSOLH(32, 8, 2)
	key, err := ahe.GenerateDGK(keyBits, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{3, 7} {
		b.Run("SS/r="+strconv.Itoa(r), func(b *testing.B) {
			ss, err := protocol.NewSS(fo, r, nr)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ss.Run(values, rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("PEOS/r="+strconv.Itoa(r), func(b *testing.B) {
			p, err := protocol.NewPEOS(fo, r, nr, key, rng.New(9))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(values, rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDPrime quantifies the Equation (5) design choice:
// SOLH at the optimal d' vs fixed d' (Table II's inner ablation).
func BenchmarkAblationDPrime(b *testing.B) {
	ds := dataset.Scaled(dataset.Kosarak, 100, 5)
	counts := ds.Histogram()
	truth := ds.TrueFrequencies()
	r := rng.New(6)
	epsC := 0.8
	opt, err := experiment.NewMethod("SOLH", epsC, benchDelta, ds.N(), ds.D)
	if err != nil {
		b.Fatal(err)
	}
	fixed, err := experiment.NewSOLHFixed(epsC, benchDelta, ds.N(), ds.D, 10)
	if err != nil {
		b.Fatal(err)
	}
	var mseOpt, mseFixed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mseOpt = experiment.MeanMSE(opt, counts, truth, 2, r)
		mseFixed = experiment.MeanMSE(fixed, counts, truth, 2, r)
	}
	b.ReportMetric(mseFixed/mseOpt, "fixed/optimal-MSE")
}

// BenchmarkAblationGRRvsSOLH sweeps the domain size to locate the
// §IV-B3 crossover where hashing starts to win.
func BenchmarkAblationGRRvsSOLH(b *testing.B) {
	const n = 100000
	epsC := 0.5
	var crossover int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crossover = 0
		for d := 2; d <= 1<<14; d *= 2 {
			if !amplify.PreferGRR(epsC, d, n, benchDelta) {
				crossover = d
				break
			}
		}
	}
	b.ReportMetric(float64(crossover), "crossover-d")
}

// BenchmarkAblationPlanner measures the §VI-D search and reports the
// fake-report budget it settles on.
func BenchmarkAblationPlanner(b *testing.B) {
	rq := amplify.Requirements{
		Eps1: 0.5, Eps2: 2, Eps3: 4,
		D: dataset.IPUMSD, N: dataset.IPUMSN, Delta: benchDelta,
	}
	var plan amplify.Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = amplify.PlanPEOS(rq)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.NR), "planned-nr")
	b.ReportMetric(plan.Variance, "planned-MSE")
}

// BenchmarkAblationEOS isolates the AHE overhead: plain oblivious
// shuffle vs EOS with DGK (with and without the per-element
// rerandomization), same vector length.
func BenchmarkAblationEOS(b *testing.B) {
	const n, r = 200, 3
	mod := secretshare.NewModulus(64)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i)
	}
	dgk, err := ahe.GenerateDGK(768, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		src := rng.New(7)
		for i := 0; i < b.N; i++ {
			st := &oblivious.State{
				Plain:     secretshare.SplitVector(values, r, mod, src),
				EncHolder: -1,
			}
			if err := oblivious.Run(st, oblivious.Config{Mod: mod, Source: src}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name string
		fast bool
	}{
		{"eos-dgk", false},
		{"eos-dgk-fast", true}, // the paper's Table III cost model
	} {
		b.Run(tc.name, func(b *testing.B) {
			src := rng.New(8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				shares := secretshare.SplitVector(values, r, mod, src)
				enc := make([]*ahe.Ciphertext, n)
				for j, s := range shares[r-1] {
					c, err := dgk.Encrypt(s)
					if err != nil {
						b.Fatal(err)
					}
					enc[j] = c
				}
				shares[r-1] = nil
				st := &oblivious.State{Plain: shares, Enc: enc, EncHolder: r - 1}
				b.StartTimer()
				err := oblivious.Run(st, oblivious.Config{
					Mod: mod, Source: src, Pub: dgk,
					SkipRerandomize: tc.fast,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceThroughput measures the streaming ingestion tier end
// to end: concurrent client connections encrypt and frame
// pre-randomized SOLH reports over net.Pipe, the service decrypts,
// batches and aggregates, and the run drains to a final
// histogram. Reported as reports/s. The tracked number is reports_per_s
// on the svc_* workloads of `go run ./benchmark`; this benchmark is the
// service tier's pprof entry point:
//
//	go test -run '^$' -bench ServiceThroughput -cpuprofile /tmp/svc.prof .
//
// An operation streams 200,000 reports, randomized once before the
// timer starts, so each connection's session handshake (one P-256
// scalar multiplication per side) is a small share of the profile and
// the per-report path is the rest.
func BenchmarkServiceThroughput(b *testing.B) {
	const n, d, batch = 200000, 64, 256
	fo := ldp.NewSOLH(d, 16, 3)
	key, err := ecies.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	values := make([]int, n)
	for i := range values {
		values[i] = i % d
	}
	reports := ldp.RandomizeParallel(fo, values, 1, 0)
	for _, clients := range []int{1, 8} {
		b.Run("clients="+strconv.Itoa(clients), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc, err := service.New(service.Config{
					FO: fo, Key: key, BatchSize: batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					clientSide, serverSide := net.Pipe()
					if err := svc.Ingest(serverSide); err != nil {
						b.Fatal(err)
					}
					cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func(c int, cl *service.Client) {
						defer wg.Done()
						// Close on every exit path so a send error cannot
						// leave a reader open and hang Drain.
						defer clientSide.Close()
						for j := c; j < len(reports); j += clients {
							if err := cl.SendReport(reports[j]); err != nil {
								b.Error(err)
								return
							}
						}
						if err := cl.Close(); err != nil {
							b.Error(err)
						}
					}(c, cl)
				}
				snap, err := svc.Drain()
				if err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				if snap.Reports != n {
					b.Fatalf("aggregated %d reports, want %d", snap.Reports, n)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkPublicAPIEstimate measures the end-to-end facade.
func BenchmarkPublicAPIEstimate(b *testing.B) {
	values := SyntheticDataset(20000, 915, 1.1, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateHistogram(values, 915, Options{
			EpsilonCentral: 1,
			Seed:           uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
