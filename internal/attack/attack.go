// Package attack simulates the adversaries of §V and the §VI defenses:
//
//   - UserCollusion: the server colludes with every user but the victim
//     (Adv_u). Without fake reports the victim's LDP report is exposed
//     exactly; with PEOS's n_r uniform fakes it hides among them
//     (Corollaries 8/9).
//   - SSFakePoisoning: a malicious sequential-shuffle hop draws its
//     fake reports from a skewed distribution to inflate a target value
//     (§VI-A1 "we find that it is hard to handle").
//   - PEOSFakePoisoning: the same adversary against PEOS can only
//     control its own *shares*; the honest shufflers' uniform shares
//     mask them (§VI-A2), keeping the combined fakes uniform.
//
// These are measurements, not proofs: each returns statistics a test
// (or example) can assert on.
package attack

import (
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// CollusionResult reports the Adv_u simulation.
type CollusionResult struct {
	// ExposedNoFakes counts trials (out of Trials) where the residual
	// multiset — shuffled reports minus the colluders' known reports —
	// pinpointed the victim's report exactly (always, without fakes).
	ExposedNoFakes int
	// IdentifiedWithFakes counts trials where an adversary guessing
	// uniformly among the residual reports (victim's + fakes) would
	// pick the victim's report.
	IdentifiedWithFakes int
	Trials              int
}

// UserCollusion simulates Adv_u: n-1 colluding users subtract their own
// reports from the shuffled output; the victim's report remains, hidden
// among nr fakes (or not, when nr = 0).
//
// The adversary's "identification" strategy with fakes is the Bayes-
// optimal uniform guess among residual reports that are a priori
// exchangeable; its success probability should approach 1/(nr+1)
// (up to collisions between the victim's report and fake words).
func UserCollusion(fo ldp.FrequencyOracle, nr, trials int, seed uint64) CollusionResult {
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		panic("attack: " + err.Error())
	}
	r := rng.New(seed)
	res := CollusionResult{Trials: trials}
	for trial := 0; trial < trials; trial++ {
		victimReport := fo.Randomize(0, r)
		victimWord := enc.Encode(victimReport)
		// Residual without fakes: exactly the victim's report.
		res.ExposedNoFakes++

		// Residual with fakes: victim's word among nr uniform words.
		residual := make([]uint64, 0, nr+1)
		residual = append(residual, victimWord)
		for k := 0; k < nr; k++ {
			residual = append(residual, enc.UniformWord(r.Uint64n))
		}
		// Uniform guess over the residual multiset.
		if residual[r.Intn(len(residual))] == victimWord {
			res.IdentifiedWithFakes++
		}
	}
	return res
}

// PoisonResult reports a fake-report poisoning simulation.
type PoisonResult struct {
	// TargetBoost is the mean estimated frequency inflation of the
	// attacker's target value relative to its true frequency.
	TargetBoost float64
	// ChiSquare is the goodness-of-fit statistic of the *combined*
	// fake reports against the uniform distribution (PEOS only; the
	// masking claim is that it stays small).
	ChiSquare float64
	// Dof is the chi-square degrees of freedom.
	Dof int
}

// SSFakePoisoning simulates the skewed-fakes attack on the sequential
// shuffle: the malicious hop submits all its nr fakes as the target
// value's report word. The server, assuming uniform fakes, subtracts
// only nr/d per value (Equation 6) — the target's estimate inflates by
// roughly nr(1-1/d)/n.
func SSFakePoisoning(fo *ldp.GRR, trueCounts []int, nr, target int, trials int, seed uint64) PoisonResult {
	d := fo.Domain()
	n := 0
	for _, c := range trueCounts {
		n += c
	}
	r := rng.New(seed)
	sup, _ := ldp.SupportOf(fo)
	truth := float64(trueCounts[target]) / float64(n)
	var boost float64
	for trial := 0; trial < trials; trial++ {
		counts := make([]int, d)
		for v, nv := range trueCounts {
			counts[v] = r.Binomial(nv, sup.P) + r.Binomial(n-nv, sup.Q)
		}
		counts[target] += nr // all fakes pushed onto the target
		est := sup.Calibrate(counts, n, nr)
		boost += est[target] - truth
	}
	return PoisonResult{TargetBoost: boost / float64(trials)}
}

// PEOSFakePoisoning simulates the same adversary against PEOS: the
// malicious shuffler fixes its share of every fake to the target's
// word, but each fake's value is the sum of all r shufflers' shares.
// With at least one honest shuffler the combined fakes stay uniform —
// measured here by a chi-square test over the report space and by the
// resulting estimate inflation (both should be statistically null).
func PEOSFakePoisoning(fo *ldp.GRR, trueCounts []int, nr, target, r, trials int, seed uint64) PoisonResult {
	enc, err := ldp.NewWordEncoder(fo)
	if err != nil {
		panic("attack: " + err.Error())
	}
	d := fo.Domain()
	n := 0
	for _, c := range trueCounts {
		n += c
	}
	mod := secretshare.NewModulus(64)
	rr := rng.New(seed)
	sup, _ := ldp.SupportOf(fo)
	truth := float64(trueCounts[target]) / float64(n)

	var boost float64
	fakeHist := make([]int, d)
	totalFakes := 0
	for trial := 0; trial < trials; trial++ {
		counts := make([]int, d)
		for v, nv := range trueCounts {
			counts[v] = rr.Binomial(nv, sup.P) + rr.Binomial(n-nv, sup.Q)
		}
		for k := 0; k < nr; k++ {
			// Malicious shuffler 0 fixes its share; 1..r-1 honest.
			word := enc.Encode(ldp.Report{Value: target})
			for j := 1; j < r; j++ {
				word = mod.Add(word, mod.Random(rr))
			}
			rep := enc.Decode(word)
			counts[rep.Value]++
			fakeHist[rep.Value]++
			totalFakes++
		}
		est := sup.Calibrate(counts, n, nr)
		boost += est[target] - truth
	}
	// Chi-square of combined fakes vs uniform.
	chi2 := 0.0
	want := float64(totalFakes) / float64(d)
	for _, c := range fakeHist {
		diff := float64(c) - want
		chi2 += diff * diff / want
	}
	return PoisonResult{
		TargetBoost: boost / float64(trials),
		ChiSquare:   chi2,
		Dof:         d - 1,
	}
}
