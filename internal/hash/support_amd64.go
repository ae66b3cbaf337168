package hash

// hits8x8 is the AVX-512 support count of support_amd64.s: counts[j]
// gains how many of the groups*8 staged lanes key j hits, for the eight
// keys; groups = 0 adds nothing. Only laneBlock.count calls it, and
// only where cpuid.AVX512DQ holds.
//
//go:noescape
func hits8x8(a, c, w *uint64, groups int, keys *[8]uint64, counts *int)

// expand8 is the AVX-512 seed expansion of support_amd64.s: a[i], b[i]
// = Sum64Uint64(seeds[i], 0), Sum64Uint64(seeds[i], 1) for the
// groups*8 seeds; groups = 0 writes nothing. Only expand calls it, and
// only where cpuid.AVX512DQ holds.
//
//go:noescape
func expand8(seeds, a, b *uint64, groups int)
