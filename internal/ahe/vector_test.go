package ahe

import (
	"bytes"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// elementVerdicts is the reference DeserializeVector is held to: the
// per-element Deserialize verdict of each size-byte cut of data, and
// the index of the first refusal (-1 when every element is accepted).
// ragged reports a length that is not a whole number of elements.
func elementVerdicts(key *DGKPrivateKey, data []byte) (first int, ragged bool) {
	size := key.CiphertextBytes()
	if len(data)%size != 0 {
		return -1, true
	}
	for i := 0; i < len(data)/size; i++ {
		if _, err := key.Deserialize(data[i*size : (i+1)*size]); err != nil {
			return i, false
		}
	}
	return -1, false
}

// checkVectorMatchesElements asserts the conformance claim on one
// input: accept iff every element is accepted, decode to the same group
// elements, and name the first culprit otherwise.
func checkVectorMatchesElements(t *testing.T, key *DGKPrivateKey, data []byte) {
	t.Helper()
	size := key.CiphertextBytes()
	first, ragged := elementVerdicts(key, data)
	got, err := key.DeserializeVector(data)
	switch {
	case ragged || first >= 0:
		if err == nil {
			t.Fatalf("accepted a vector Deserialize refuses (ragged=%v, first bad element %d)", ragged, first)
		}
		if !ragged && !strings.Contains(err.Error(), fmt.Sprintf("ciphertext %d:", first)) {
			t.Fatalf("error %q does not name the culprit index %d", err, first)
		}
	case err != nil:
		t.Fatalf("refused a vector every element of which Deserialize accepts: %v", err)
	default:
		if len(got) != len(data)/size {
			t.Fatalf("decoded %d elements, want %d", len(got), len(data)/size)
		}
		for i, c := range got {
			if !bytes.Equal(key.Serialize(c), data[i*size:(i+1)*size]) {
				t.Fatalf("element %d decoded to a different group element", i)
			}
		}
	}
}

// honestVector serializes n fresh encryptions.
func honestVector(t testing.TB, key *DGKPrivateKey, n int) []byte {
	t.Helper()
	var data []byte
	for i := 0; i < n; i++ {
		c, err := key.Encrypt(uint64(i) * 0x9e3779b97f4a7c15)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, key.Serialize(c)...)
	}
	return data
}

// badElements are the refusals of Deserialize, one blob each: the two
// range edges, the zero, and non-units on either secret factor.
func badElements(key *DGKPrivateKey) map[string][]byte {
	size := key.CiphertextBytes()
	q := new(big.Int).Div(key.n, key.p)
	fixed := func(v *big.Int) []byte { return serializeFixed(v, size) }
	return map[string][]byte{
		"zero":          make([]byte, size),
		"n":             fixed(key.n),
		"n+1":           fixed(new(big.Int).Add(key.n, bigOne)),
		"all-0xff":      bytes.Repeat([]byte{0xff}, size),
		"multiple-of-p": fixed(new(big.Int).Mul(key.p, big.NewInt(12345))),
		"multiple-of-q": fixed(new(big.Int).Mul(q, big.NewInt(3))),
	}
}

// TestDeserializeVectorConformance: the batched decoder accepts and
// refuses exactly what per-element Deserialize does.
func TestDeserializeVectorConformance(t *testing.T) {
	const n = 64
	for _, key := range conformanceKeys(t) {
		size := key.CiphertextBytes()
		honest := honestVector(t, key, n)
		if first, _ := elementVerdicts(key, honest); first >= 0 {
			t.Fatalf("honest ciphertext %d refused by Deserialize", first)
		}
		checkVectorMatchesElements(t, key, honest)
		checkVectorMatchesElements(t, key, nil)
		checkVectorMatchesElements(t, key, honest[:size])
		// Ragged: a byte short, a byte over, a lone fragment.
		checkVectorMatchesElements(t, key, honest[:len(honest)-1])
		checkVectorMatchesElements(t, key, append(honest[:len(honest):len(honest)], 7))
		checkVectorMatchesElements(t, key, []byte{1, 2, 3})

		for name, bad := range badElements(key) {
			if _, err := key.Deserialize(bad); err == nil {
				t.Fatalf("%s: Deserialize accepts it; the table is wrong", name)
			}
			for _, pos := range []int{0, n / 2, n - 1} {
				planted := bytes.Clone(honest)
				copy(planted[pos*size:], bad)
				if first, _ := elementVerdicts(key, planted); first != pos {
					t.Fatalf("%s at %d: reference names %d", name, pos, first)
				}
				checkVectorMatchesElements(t, key, planted)
			}
		}
		// Two non-units whose product is 0 mod n: the running product
		// degenerates and must still be refused, at the first of them.
		planted := bytes.Clone(honest)
		bad := badElements(key)
		copy(planted[5*size:], bad["multiple-of-q"])
		copy(planted[9*size:], bad["multiple-of-p"])
		checkVectorMatchesElements(t, key, planted)
	}
}

// FuzzDeserializeVector: the vector verdict is the AND of the
// per-element verdicts. The key is generated per process, so the input
// is a script, not raw ciphertext bytes: each script byte plants one
// element (its low three bits choose honest, zero, n, all-0xff, a
// multiple of p or of q; the high bits vary the honest pick and the
// multiplier), and tail is appended raw — a ragged fragment, or whole
// arbitrary elements.
func FuzzDeserializeVector(f *testing.F) {
	key, err := GenerateDGK(448, 16)
	if err != nil {
		f.Fatal(err)
	}
	size := key.CiphertextBytes()
	honest := honestVector(f, key, 32)
	q := new(big.Int).Div(key.n, key.p)
	// Shapes beyond these (plants at the edges, p then q, raw elements,
	// ragged tails) are in testdata/fuzz.
	f.Add([]byte{0, 8, 16}, []byte{})
	f.Add([]byte{0, 3, 0}, []byte{1})
	f.Fuzz(func(t *testing.T, script, tail []byte) {
		if len(script) > 256 || len(tail) > 4*size {
			return
		}
		var data []byte
		for _, b := range script {
			k := big.NewInt(int64(b>>3) + 1)
			switch b & 7 {
			case 3:
				data = append(data, make([]byte, size)...)
			case 4:
				data = append(data, serializeFixed(key.n, size)...)
			case 5:
				data = append(data, bytes.Repeat([]byte{0xff}, size)...)
			case 6:
				data = append(data, serializeFixed(k.Mul(k, key.p), size)...)
			case 7:
				data = append(data, serializeFixed(k.Mul(k, q), size)...)
			default:
				i := int(b>>3) % 32
				data = append(data, honest[i*size:(i+1)*size]...)
			}
		}
		checkVectorMatchesElements(t, key, append(data, tail...))
	})
}
