package hash

import "encoding/binary"

func round(acc, input uint64) uint64 {
	acc += input * prime2
	acc = rol(acc, 31)
	acc *= prime1
	return acc
}

func mergeRound(acc, val uint64) uint64 {
	val = round(0, val)
	acc ^= val
	acc = acc*prime1 + prime4
	return acc
}

// sum64 is xxHash64 over any byte string: the reference Sum64Uint64
// must agree with, checked against the canonical vectors.
func sum64(seed uint64, data []byte) uint64 {
	n := len(data)
	var h uint64
	p := data
	if n >= 32 {
		v1 := seed + prime1 + prime2
		v2 := seed + prime2
		v3 := seed
		v4 := seed - prime1
		for len(p) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(p[24:32]))
			p = p[32:]
		}
		h = rol(v1, 1) + rol(v2, 7) + rol(v3, 12) + rol(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(n)
	for len(p) >= 8 {
		h ^= round(0, binary.LittleEndian.Uint64(p[:8]))
		h = rol(h, 27)*prime1 + prime4
		p = p[8:]
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p[:4])) * prime1
		h = rol(h, 23)*prime2 + prime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * prime5
		h = rol(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
