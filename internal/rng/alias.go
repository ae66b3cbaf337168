package rng

// Alias is a Walker alias table for O(1) sampling from an arbitrary
// discrete distribution over {0, ..., len(weights)-1}.
//
// Dataset generators (internal/dataset) build one per synthetic
// distribution so that drawing n ~ 10^6 user values is cheap.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. At least one
// weight must be positive. Construction is O(k); sampling is O(1).
func NewAlias(weights []float64) *Alias {
	k := len(weights)
	if k == 0 {
		panic("rng: NewAlias with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: NewAlias with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: NewAlias with zero total weight")
	}
	a := &Alias{
		prob:  make([]float64, k),
		alias: make([]int, k),
	}
	// Scaled probabilities; partition into small (<1) and large (>=1).
	scaled := make([]float64, k)
	small := make([]int, 0, k)
	large := make([]int, 0, k)
	for i, w := range weights {
		scaled[i] = w * float64(k) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are 1 up to floating-point error.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index from the distribution using r.
func (a *Alias) Sample(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
