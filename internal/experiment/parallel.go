package experiment

import "shuffledp/internal/rng"

// The figure/table runners fan their (budget, method) trial jobs out
// over ldp.RunSharded, the estimation engine's work-stealing loop, at
// GOMAXPROCS workers. Every job draws its randomness from
// rng.Substream(cfg.Seed, jobID) where the job id is a pure function of
// the job's position in the configuration, so a run's artifact is
// identical for any GOMAXPROCS — the same contract the public
// EstimateHistogram API makes (TestGoldenIndependentOfGOMAXPROCS).

// jobStream returns the deterministic trial generator for one job of a
// seeded run.
func jobStream(seed uint64, job int) *rng.Rand {
	return rng.Substream(seed, uint64(job))
}
