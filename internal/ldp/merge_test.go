package ldp

import (
	"fmt"
	"math"
	"testing"

	"shuffledp/internal/rng"
)

// mergeOracles is the full oracle lineup the merge property must hold
// for.
func mergeOracles() map[string]FrequencyOracle {
	return map[string]FrequencyOracle{
		"GRR":  NewGRR(32, 1.5),
		"OLH":  NewOLH(64, 2),
		"SOLH": NewSOLH(64, 7, 1.2),
	}
}

// The Merge contract: N sharded aggregators merged together produce
// bit-identical Estimates to one sequential aggregator over the same
// reports — for every oracle, at shard counts that do and do not divide
// the report count, including empty shards.
func TestMergeMatchesSequential(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			const n = 4000
			r := rng.New(42)
			d := fo.Domain()
			reports := make([]Report, n)
			for i := range reports {
				reports[i] = fo.Randomize(i%d, r)
			}
			seq := fo.NewAggregator()
			for _, rep := range reports {
				seq.Add(rep)
			}
			want := seq.Estimates()
			// One estimator: what the accumulator reports is what
			// Support.Calibrate makes of the same reports' support
			// counts.
			sup, _ := SupportOf(fo)
			direct := sup.Calibrate(SupportCounts(fo, reports), n, 0)
			for v := range want {
				if math.Float64bits(direct[v]) != math.Float64bits(want[v]) {
					t.Fatalf("estimate[%d]: calibrated support counts give %v, Estimates %v", v, direct[v], want[v])
				}
			}
			for _, shards := range []int{1, 2, 3, 8, 64} {
				aggs := make([]Aggregator, shards+1) // +1: an empty shard
				for i := range aggs {
					aggs[i] = fo.NewAggregator()
				}
				for i, rep := range reports {
					aggs[i%shards].Add(rep)
				}
				root := aggs[0]
				for _, a := range aggs[1:] {
					root.Merge(a)
				}
				if root.Count() != n {
					t.Fatalf("shards=%d: merged count %d, want %d", shards, root.Count(), n)
				}
				got := root.Estimates()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("shards=%d: estimate[%d] = %v, want bit-identical %v",
							shards, v, got[v], want[v])
					}
				}
			}
		})
	}
}

// Merging must drain the donor and stay usable afterwards: adding more
// reports to the merged aggregator equals a sequential pass over the
// concatenation — also when both sides hold a half-full staged block at
// the merge, and a clone taken right after it is the sequential
// aggregate of what had been added by then.
func TestMergeThenAdd(t *testing.T) {
	fo := NewSOLH(40, 5, 1)
	r := rng.New(7)
	reports := make([]Report, 1500)
	for i := range reports {
		reports[i] = fo.Randomize(i%40, r)
	}
	sequential := func(reports []Report) []float64 {
		seq := fo.NewAggregator()
		for _, rep := range reports {
			seq.Add(rep)
		}
		return seq.Estimates()
	}
	for _, cut := range [][2]int{
		{600, 1000},
		{lhBlock + lhBlock/2, 2 * lhBlock}, // staged: half a block on each side
	} {
		a := fo.NewAggregator()
		b := fo.NewAggregator()
		for _, rep := range reports[:cut[0]] {
			a.Add(rep)
		}
		for _, rep := range reports[cut[0]:cut[1]] {
			b.Add(rep)
		}
		a.Merge(b)
		if b.Count() != 0 {
			t.Fatalf("cut %v: donor not drained: count %d", cut, b.Count())
		}
		want := sequential(reports[:cut[1]])
		for v, got := range a.Clone().Estimates() {
			if got != want[v] {
				t.Fatalf("cut %v: clone after merge: estimate[%d] = %v, want %v", cut, v, got, want[v])
			}
		}
		for _, rep := range reports[cut[1]:] {
			a.Add(rep)
		}
		want = sequential(reports)
		for v, got := range a.Estimates() {
			if got != want[v] {
				t.Fatalf("cut %v: estimate[%d] = %v, want %v", cut, v, got, want[v])
			}
		}
	}
}

// The Clone contract: the clone reports bit-identical Estimates, and
// neither draining the clone through Merge nor adding further reports
// to either side leaks into the other — for every oracle, including
// aggregators that have already been merged into and mid-block local
// hash aggregators (buffered, unflushed reports).
func TestCloneIsIndependentAndBitIdentical(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			const n = 1000
			r := rng.New(17)
			d := fo.Domain()
			agg := fo.NewAggregator()
			for i := 0; i < n; i++ {
				agg.Add(fo.Randomize(i%d, r))
			}
			want := agg.Estimates()
			clone := agg.Clone()
			if clone.Count() != n {
				t.Fatalf("clone count %d, want %d", clone.Count(), n)
			}
			got := clone.Estimates()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("clone estimate[%d] = %v, want bit-identical %v", v, got[v], want[v])
				}
			}
			// Drain the clone into a sink; the original must be untouched.
			sink := fo.NewAggregator()
			sink.Merge(clone)
			after := agg.Estimates()
			for v := range want {
				if after[v] != want[v] {
					t.Fatalf("draining the clone mutated the original at %d: %v != %v", v, after[v], want[v])
				}
			}
			// Add to the original; a fresh clone of the sink must not move.
			frozen := sink.Clone().Estimates()
			agg.Add(fo.Randomize(0, r))
			if agg.Count() != n+1 {
				t.Fatalf("original count %d after add, want %d", agg.Count(), n+1)
			}
			still := sink.Estimates()
			for v := range frozen {
				if still[v] != frozen[v] {
					t.Fatalf("adding to the original mutated the merged clone at %d", v)
				}
			}
		})
	}
}

// An empty aggregator must clone without materializing lazily-allocated
// state (the local-hash counts slice is nil until the first flush).
func TestCloneEmpty(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			c := fo.NewAggregator().Clone()
			if c.Count() != 0 {
				t.Fatalf("empty clone count %d", c.Count())
			}
			if got := c.Estimates(); len(got) != fo.Domain() {
				t.Fatalf("empty clone estimates length %d, want %d", len(got), fo.Domain())
			}
		})
	}
}

func TestMergeIncompatiblePanics(t *testing.T) {
	cases := map[string][2]Aggregator{
		"cross-oracle": {NewGRR(8, 1).NewAggregator(), NewSOLH(8, 4, 1).NewAggregator()},
		"grr-domain":   {NewGRR(8, 1).NewAggregator(), NewGRR(9, 1).NewAggregator()},
		"lh-dprime":    {NewSOLH(16, 4, 1).NewAggregator(), NewSOLH(16, 5, 1).NewAggregator()},
	}
	for name, pair := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			pair[0].Merge(pair[1])
		})
	}
}

// The parallel engine must be a pure function of (oracle, values, seed):
// every worker count gives identical reports and identical estimates.
func TestParallelEngineDeterministicAcrossWorkers(t *testing.T) {
	for name, fo := range mergeOracles() {
		t.Run(name, func(t *testing.T) {
			d := fo.Domain()
			n := 3*ShardSize + 117 // several shards plus a ragged tail
			values := make([]int, n)
			for i := range values {
				values[i] = (i * 7) % d
			}
			const seed = 99
			baseReports := RandomizeParallel(fo, values, seed, 1)
			base := AggregateParallel(fo, baseReports, 1).Estimates()
			for _, workers := range []int{2, 3, 8} {
				reports := RandomizeParallel(fo, values, seed, workers)
				for i := range reports {
					if reports[i].Seed != baseReports[i].Seed || reports[i].Value != baseReports[i].Value {
						t.Fatalf("workers=%d: report %d differs", workers, i)
					}
				}
				got := AggregateParallel(fo, reports, workers).Estimates()
				for v := range base {
					if got[v] != base[v] {
						t.Fatalf("workers=%d: estimate[%d] = %v, want bit-identical %v",
							workers, v, got[v], base[v])
					}
				}
			}
		})
	}
}

// EstimateParallel with one worker must agree with what a sequential
// aggregator computes from the same substream-randomized reports.
func TestEstimateParallelMatchesSequentialAggregation(t *testing.T) {
	fo := NewSOLH(50, 6, 1.5)
	values := make([]int, 2*ShardSize+33)
	for i := range values {
		values[i] = i % 50
	}
	reports := RandomizeParallel(fo, values, 5, 4)
	seq := fo.NewAggregator()
	for _, rep := range reports {
		seq.Add(rep)
	}
	want := seq.Estimates()
	got := EstimateParallel(fo, values, 5, 4)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("estimate[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

// Worker panics (out-of-range values) must surface on the caller.
func TestRandomizeParallelPropagatesPanic(t *testing.T) {
	fo := NewGRR(8, 1)
	values := make([]int, 2*ShardSize)
	values[ShardSize+5] = 8 // out of range
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomizeParallel(fo, values, 1, 4)
}

// The reworked SOLH aggregator must agree with the naive per-pair hash
// loop of the seed implementation across block boundaries (n below, at,
// and above lhBlock multiples).
func TestLocalHashAggregatorMatchesNaive(t *testing.T) {
	fo := NewSOLH(37, 5, 1)
	r := rng.New(11)
	for _, n := range []int{0, 1, lhBlock - 1, lhBlock, lhBlock + 1, 3*lhBlock + 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			reports := make([]Report, n)
			for i := range reports {
				reports[i] = fo.Randomize(i%37, r)
			}
			agg := fo.NewAggregator()
			for _, rep := range reports {
				agg.Add(rep)
			}
			counts := make([]int, 37)
			for _, rep := range reports {
				for v := 0; v < 37; v++ {
					if fo.family.Hash(uint64(rep.Seed), uint64(v)) == rep.Value {
						counts[v]++
					}
				}
			}
			want := Support{P: fo.p, Q: 1 / float64(fo.DPrime())}.Calibrate(counts, n, 0)
			got := agg.Estimates()
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("estimate[%d] = %v, want %v", v, got[v], want[v])
				}
			}
			// Estimates must be repeatable and survive further Adds.
			again := agg.Estimates()
			for v := range got {
				if again[v] != got[v] {
					t.Fatal("Estimates not repeatable")
				}
			}
		})
	}
}

// The accumulator's hot path stays allocation-free once its state
// exists: local hashing after the first staged block, GRR after the
// first report.
func TestAggregatorAddDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		fo     FrequencyOracle
		warmup int
		n      int
	}{
		{NewSOLH(64, 7, 1.2), lhBlock, 10 * lhBlock},
		{NewGRR(32, 1.5), 1, 10000},
	} {
		r := rng.New(23)
		reports := make([]Report, tc.warmup+tc.n)
		for i := range reports {
			reports[i] = tc.fo.Randomize(i%tc.fo.Domain(), r)
		}
		agg := tc.fo.NewAggregator()
		for _, rep := range reports[:tc.warmup] {
			agg.Add(rep)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, rep := range reports[tc.warmup:] {
				agg.Add(rep)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per %d Adds, want 0", tc.fo.Name(), allocs, tc.n)
		}
	}
}
