package hash

// hits8x8 is the AVX-512 support count of support_amd64.s: counts[j]
// gains how many of the groups*8 staged lanes key j hits, for the eight
// keys; groups = 0 adds nothing. Only countCandidatesAVX512 calls it, and only where
// cpuid.AVX512DQ holds.
//
//go:noescape
func hits8x8(a, c, w *uint64, groups int, keys *[8]uint64, counts *int)
