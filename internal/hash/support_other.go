//go:build !amd64

package hash

func hits8x8(a, c, w *uint64, groups int, keys *[8]uint64, counts *int) {
	panic("hash: no AVX-512 support kernel on this architecture")
}
