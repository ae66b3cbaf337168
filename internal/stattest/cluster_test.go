package stattest_test

// Statistical acceptance of the cluster deployment: the same stattest
// band the streaming service passes, applied to a PEOS cluster round
// over loopback TCP on the clickstream workload (the Zipf dataset of
// examples/clickstream_peos). The conformance suite in internal/cluster
// proves the cluster bit-identical to the in-process protocol; this
// test closes the remaining gap — that the protocol is itself a
// correctly calibrated, unbiased estimator. A round that dropped or
// double-counted reports would blow the MSE band by orders of
// magnitude.

import (
	"net"
	"sync"
	"testing"
	"time"

	"shuffledp"
	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/stattest"
)

var (
	clusterKeyOnce sync.Once
	clusterKey     *ahe.DGKPrivateKey
	clusterKeyErr  error
)

// clusterStatKey generates one DGK-512 pair for every trial of this
// file. The estimates do not depend on the key (decryption is exact),
// so sharing it keeps the trials deterministic-in-seed while paying
// the keygen cost once.
func clusterStatKey(t *testing.T) *ahe.DGKPrivateKey {
	t.Helper()
	clusterKeyOnce.Do(func() {
		clusterKey, clusterKeyErr = ahe.GenerateDGK(512, 64)
	})
	if clusterKeyErr != nil {
		t.Fatal(clusterKeyErr)
	}
	return clusterKey
}

// clusterTrial returns a stattest.Trial that stands up a fresh
// loopback cluster — r shuffler nodes and the analyzer — runs one full
// collection round of the values, and returns the analyzer's served
// estimates. All client and shuffler randomness derives from the trial
// seed, so each estimate is a pure function of it.
func clusterTrial(fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, values []int, r, nr int) stattest.Trial {
	return func(seed uint64) (est []float64, err error) {
		topo := cluster.Topology{Shufflers: make([]string, r)}
		listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
		lns := make([]net.Listener, r)
		for j := range lns {
			if lns[j], err = listen(); err != nil {
				return nil, err
			}
			topo.Shufflers[j] = lns[j].Addr().String()
		}
		aln, err := listen()
		if err != nil {
			return nil, err
		}
		topo.Analyzers = []string{aln.Addr().String()}
		a, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
			Topology:       topo,
			Listener:       aln,
			FO:             fo,
			NR:             nr,
			Priv:           priv,
			CollectTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		defer a.Close()
		for j := 0; j < r; j++ {
			sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
				Index:       j,
				Topology:    topo,
				Listener:    lns[j],
				NR:          nr,
				Pub:         ahe.PublicKey(priv),
				Source:      rng.Substream(seed, uint64(1000+j)),
				SealTimeout: 30 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			defer sh.Close()
			go sh.Run()
		}
		cl, err := cluster.NewClient(cluster.ClientConfig{Topology: topo, FO: fo, Pub: ahe.PublicKey(priv), Source: rng.Substream(seed, 1)})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if err := cl.SendValues(0, values, rng.Substream(seed, 2)); err != nil {
			return nil, err
		}
		if err := cl.Flush(); err != nil {
			return nil, err
		}
		col, err := a.Collect(len(values))
		if err != nil {
			return nil, err
		}
		return col.Estimates, nil
	}
}

// TestClusterStatisticalAcceptance is the statistical acceptance gate
// of the cluster deployment: the clickstream workload (same Zipf shape
// and seed as examples/clickstream_peos), GRR, r=2 shufflers and the
// analyzer. The served estimates must land in the standard MSE band
// around the analytic LDP variance and show no systematic bias.
func TestClusterStatisticalAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("real cryptography over TCP; skipped in -short")
	}
	const (
		n, d   = 1200, 16
		r, nr  = 2, 12
		trials = 3
	)
	values := shuffledp.SyntheticDataset(n, d, 1.4, 11)
	truth := ldp.TrueFrequencies(values, d)
	fo := ldp.NewGRR(d, 2)
	priv := clusterStatKey(t)
	stattest.CheckMSE(t, fo, truth, n, trials, 2100, 3,
		clusterTrial(fo, priv, values, r, nr))
	stattest.CheckUnbiased(t, fo, truth, n, trials, 2200, 6,
		clusterTrial(fo, priv, values, r, nr))
}
