package ldp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"shuffledp/internal/rng"
)

// Parallel estimation engine.
//
// Randomization and aggregation both fan out over a worker pool, with
// two invariants that make the results reproducible independent of the
// worker count:
//
//   - Randomization is sharded into fixed-size shards (ShardSize values
//     per shard, regardless of concurrency) and shard s draws all its
//     randomness from rng.Substream(seed, s). A report therefore depends
//     only on (seed, its position), never on scheduling.
//   - Aggregation accumulates exactly representable integer statistics
//     in every oracle (support counts, bit counts, ±1 row sums), so
//     merging worker aggregators is associative and commutative and the
//     merged Estimates are bit-identical to a sequential pass.
//
// Worker panics (e.g. an out-of-range value inside Randomize) are
// captured and re-raised on the calling goroutine, preserving the
// sequential API's panic contract.

// ShardSize is the number of values per randomization shard. It is a
// fixed constant — never derived from the worker count — so that shard
// substreams, and therefore every report, are independent of
// concurrency.
const ShardSize = 4096

// Workers normalizes a concurrency setting: values < 1 mean "use all
// available cores" (GOMAXPROCS).
func Workers(concurrency int) int {
	if concurrency < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return concurrency
}

// capturedPanic wraps a recovered panic value in one concrete type so
// concurrent CompareAndSwap calls never see inconsistently typed values
// (atomic.Value panics on those).
type capturedPanic struct{ val any }

// RunSharded executes fn(worker, shard) for every shard in [0, shards)
// on up to `workers` goroutines, re-raising the first worker panic in
// the caller. The worker index lets callers keep per-worker state
// (e.g. one aggregator per worker); callers that only need the shard
// index can ignore it. It is the one work-stealing loop behind both
// the estimation engine and the experiment harness.
func RunSharded(shards, workers int, fn func(worker, shard int)) {
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, capturedPanic{r})
				}
			}()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(worker, s)
			}
		}(w)
	}
	wg.Wait()
	if r, ok := panicked.Load().(capturedPanic); ok {
		panic(r.val)
	}
}

// RandomizeParallel perturbs every value with fo.Randomize across up to
// `workers` goroutines (`workers` < 1 means GOMAXPROCS) and returns the
// reports in input order. The output is a pure function of (fo, values,
// seed): shard s of ShardSize values uses rng.Substream(seed, s), so any
// worker count produces identical reports. Like Randomize, it panics on
// out-of-range values.
func RandomizeParallel(fo FrequencyOracle, values []int, seed uint64, workers int) []Report {
	reports := make([]Report, len(values))
	shards := (len(values) + ShardSize - 1) / ShardSize
	RunSharded(shards, Workers(workers), func(_, s int) {
		lo := s * ShardSize
		hi := lo + ShardSize
		if hi > len(values) {
			hi = len(values)
		}
		r := rng.Substream(seed, uint64(s))
		for i := lo; i < hi; i++ {
			reports[i] = fo.Randomize(values[i], r)
		}
	})
	return reports
}

// AggregateParallel feeds the reports through per-worker aggregators on
// up to `workers` goroutines (`workers` < 1 means GOMAXPROCS) and merges
// the shards into one aggregator, which it returns. The merged estimates
// are bit-identical to a single sequential aggregator over the same
// reports (see Aggregator.Merge).
func AggregateParallel(fo FrequencyOracle, reports []Report, workers int) Aggregator {
	w := Workers(workers)
	shards := (len(reports) + ShardSize - 1) / ShardSize
	if w <= 1 || shards <= 1 {
		agg := fo.NewAggregator()
		for _, rep := range reports {
			agg.Add(rep)
		}
		return agg
	}
	if w > shards {
		w = shards
	}
	aggs := make([]Aggregator, w)
	for i := range aggs {
		aggs[i] = fo.NewAggregator()
	}
	RunSharded(shards, w, func(worker, s int) {
		lo := s * ShardSize
		hi := lo + ShardSize
		if hi > len(reports) {
			hi = len(reports)
		}
		agg := aggs[worker]
		for i := lo; i < hi; i++ {
			agg.Add(reports[i])
		}
	})
	root := aggs[0]
	for _, agg := range aggs[1:] {
		root.Merge(agg)
	}
	return root
}

// EstimateParallel randomizes every value and aggregates the reports,
// fanning both stages out over up to `workers` goroutines. The estimates
// are identical for a fixed seed regardless of the worker count. (No
// explicit shuffle is performed: estimation is order-invariant, so the
// shuffler is a semantic no-op here; callers that model the server's
// view materialize the reports with RandomizeParallel and permute them.)
func EstimateParallel(fo FrequencyOracle, values []int, seed uint64, workers int) []float64 {
	reports := RandomizeParallel(fo, values, seed, workers)
	return AggregateParallel(fo, reports, workers).Estimates()
}
