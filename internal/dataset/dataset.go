// Package dataset generates the synthetic stand-ins for the paper's
// three evaluation datasets (§VII-A). The originals are not
// redistributable, so each generator matches the statistics the
// experiments actually consume — n, domain size, and frequency skew —
// as documented in DESIGN.md §2:
//
//   - IPUMS:   n = 602,325 users, d = 915 cities, Zipf(1.1).
//   - Kosarak: n = 990,002 users, d = 42,178 items, Zipf(1.4).
//   - AOL:     n = 500,000 users, 6-byte (48-bit) query strings,
//     ~120,000 unique, Zipf(1.05) over the unique strings.
//
// All generators are deterministic given the seed.
package dataset

import (
	"fmt"

	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
)

// Paper-reported dataset statistics.
const (
	IPUMSN = 602325
	IPUMSD = 915

	KosarakN = 990002
	KosarakD = 42178

	AOLN      = 500000
	AOLUnique = 120000
	AOLBits   = 48
)

// Dataset is a categorical dataset: each user holds one value in
// [0, D).
type Dataset struct {
	// Name labels the dataset in experiment output.
	Name string
	// Values holds one value per user.
	Values []int
	// D is the domain size.
	D int
}

// N returns the number of users.
func (ds *Dataset) N() int { return len(ds.Values) }

// TrueFrequencies returns the exact frequency vector.
func (ds *Dataset) TrueFrequencies() []float64 {
	return ldp.TrueFrequencies(ds.Values, ds.D)
}

// Histogram returns the exact count vector.
func (ds *Dataset) Histogram() []int { return ldp.Histogram(ds.Values, ds.D) }

// Synthetic draws n users from Zipf(s) over [0, d).
func Synthetic(name string, n, d int, s float64, seed uint64) *Dataset {
	if n < 1 || d < 2 {
		panic("dataset: need n >= 1 and d >= 2")
	}
	r := rng.New(seed)
	z := rng.NewZipf(d, s)
	values := make([]int, n)
	for i := range values {
		values[i] = z.Sample(r)
	}
	return &Dataset{Name: name, Values: values, D: d}
}

// IPUMS generates the census-city stand-in at full scale.
func IPUMS(seed uint64) *Dataset {
	return Synthetic("IPUMS", IPUMSN, IPUMSD, 1.1, seed)
}

// Kosarak generates the click-stream stand-in at full scale.
func Kosarak(seed uint64) *Dataset {
	return Synthetic("Kosarak", KosarakN, KosarakD, 1.4, seed)
}

// Scaled returns a smaller copy of a generator's output for quick runs:
// the same d and skew, but n scaled down by factor (>= 1).
func Scaled(gen func(uint64) *Dataset, factor int, seed uint64) *Dataset {
	if factor < 1 {
		panic("dataset: scale factor must be >= 1")
	}
	full := gen(seed)
	n := len(full.Values) / factor
	if n < 1 {
		n = 1
	}
	full.Values = full.Values[:n]
	full.Name = fmt.Sprintf("%s/%d", full.Name, factor)
	return full
}

// StringDataset is a dataset of fixed-width bit strings (the succinct-
// histogram input, §VII-C).
type StringDataset struct {
	// Name labels the dataset.
	Name string
	// Values holds one Bits-bit string per user, packed into uint64.
	Values []uint64
	// Bits is the string length in bits (48 for AOL).
	Bits int
}

// N returns the number of users.
func (ds *StringDataset) N() int { return len(ds.Values) }

// SyntheticStrings draws n users over nUnique distinct `bits`-bit
// strings with Zipf(s) popularity.
func SyntheticStrings(name string, n, nUnique, bits int, s float64, seed uint64) *StringDataset {
	if bits < 8 || bits > 64 {
		panic("dataset: string bits must be in [8, 64]")
	}
	if nUnique < 2 || n < 1 {
		panic("dataset: need nUnique >= 2 and n >= 1")
	}
	r := rng.New(seed)
	// Distinct random strings; at 48 bits collisions among 120k draws
	// are ~2^-14 likely per pair, so reject duplicates explicitly.
	mask := ^uint64(0)
	if bits < 64 {
		mask = (1 << uint(bits)) - 1
	}
	unique := make([]uint64, 0, nUnique)
	seen := make(map[uint64]bool, nUnique)
	for len(unique) < nUnique {
		v := r.Uint64() & mask
		if !seen[v] {
			seen[v] = true
			unique = append(unique, v)
		}
	}
	z := rng.NewZipf(nUnique, s)
	values := make([]uint64, n)
	for i := range values {
		values[i] = unique[z.Sample(r)]
	}
	return &StringDataset{Name: name, Values: values, Bits: bits}
}

// TopStrings returns the k most frequent strings in the dataset (ties
// broken arbitrarily but deterministically).
func (ds *StringDataset) TopStrings(k int) []uint64 {
	counts := make(map[uint64]int)
	for _, v := range ds.Values {
		counts[v]++
	}
	type kv struct {
		v uint64
		c int
	}
	all := make([]kv, 0, len(counts))
	for v, c := range counts {
		all = append(all, kv{v, c})
	}
	// Selection of top k by count, then value for determinism.
	for i := 0; i < k && i < len(all); i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].c > all[best].c ||
				(all[j].c == all[best].c && all[j].v < all[best].v) {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].v
	}
	return out
}
