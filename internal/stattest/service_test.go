package stattest_test

// The tier-1 statistical acceptance tests of the streaming ingestion
// tier: every oracle with a service codec — GRR and SOLH — runs
// end-to-end — randomize, encrypt, frame over net.Pipe connections,
// batch-shuffle, decrypt, aggregate — and the drained histogram's
// error must sit inside the stattest band around each oracle's
// analytic variance, with a matching unbiasedness check. A pipeline
// that drops a batch, double-counts a connection, corrupts a
// ciphertext, or skips the randomizer cannot pass. The Figure 3
// baselines the service does not speak are checked in process
// (stattest_test.go).

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/stattest"
)

// serviceTrial returns a stattest.Trial that pushes the values through
// a fresh streaming service on every call: reports randomized from the
// trial seed are split round-robin across `clients` concurrent
// connections and the drained estimate is returned.
func serviceTrial(fo ldp.FrequencyOracle, values []int, clients, batch int) stattest.Trial {
	return func(seed uint64) ([]float64, error) {
		key, err := ecies.GenerateKey()
		if err != nil {
			return nil, err
		}
		svc, err := service.New(service.Config{
			FO:          fo,
			Key:         key,
			BatchSize:   batch,
			ShuffleSeed: seed + 7777,
		})
		if err != nil {
			return nil, err
		}
		defer svc.Close()

		reports := ldp.RandomizeParallel(fo, values, seed, 0)
		errc := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			clientSide, serverSide := net.Pipe()
			if err := svc.Ingest(serverSide); err != nil {
				return nil, err
			}
			cl, err := service.NewSessionClient(fo, key.Public(), nil, clientSide, 0)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go func(c int, cl *service.Client) {
				defer wg.Done()
				// Close on every exit path so an error cannot leave a
				// reader open for Drain to wait on forever.
				defer clientSide.Close()
				for i := c; i < len(reports); i += clients {
					if err := cl.SendReport(reports[i]); err != nil {
						errc <- fmt.Errorf("client %d: %w", c, err)
						return
					}
				}
				errc <- cl.Close()
			}(c, cl)
		}
		snap, err := svc.Drain()
		if err != nil {
			return nil, err
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				return nil, err
			}
		}
		if snap.Reports != len(values) {
			return nil, fmt.Errorf("service aggregated %d reports, want %d", snap.Reports, len(values))
		}
		return snap.Estimates, nil
	}
}

func TestServiceStatisticalAcceptanceGRR(t *testing.T) {
	const n, d, trials = 3000, 16, 4
	values := stattest.SkewedValues(n, d, 11)
	truth := ldp.TrueFrequencies(values, d)
	fo := ldp.NewGRR(d, 2)
	stattest.CheckMSE(t, fo, truth, n, trials, 500, 3, serviceTrial(fo, values, 4, 128))
}

func TestServiceStatisticalAcceptanceSOLH(t *testing.T) {
	const n, d, trials = 3000, 32, 4
	values := stattest.SkewedValues(n, d, 12)
	truth := ldp.TrueFrequencies(values, d)
	fo := ldp.NewSOLH(d, 16, 3)
	stattest.CheckMSE(t, fo, truth, n, trials, 600, 3, serviceTrial(fo, values, 4, 128))
}

// The streaming pipeline must also be unbiased, not just noisy at the
// right magnitude (a wrong calibration constant could hide inside the
// MSE band at small n).
func TestServiceUnbiasedGRR(t *testing.T) {
	const n, d, trials = 2000, 16, 5
	values := stattest.SkewedValues(n, d, 14)
	truth := ldp.TrueFrequencies(values, d)
	fo := ldp.NewGRR(d, 2)
	stattest.CheckUnbiased(t, fo, truth, n, trials, 800, 6, serviceTrial(fo, values, 3, 100))
}
