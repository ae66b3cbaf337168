package ecies

import "testing"

func BenchmarkEncrypt32B(b *testing.B) {
	priv, err := GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	pub := priv.Public()
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(pub, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt32B(b *testing.B) {
	priv, err := GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := Encrypt(priv.Public(), make([]byte, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(priv, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// The session hot path: what one report costs once the handshake is
// amortized away. Must report 0 allocs/op (TestSessionNoAllocs gates
// it); contrast with BenchmarkDecrypt32B, the per-report ECIES wall.
func BenchmarkSessionSealOpen512B(b *testing.B) {
	priv, err := GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	client, hello, err := NewClientSession(priv.Public())
	if err != nil {
		b.Fatal(err)
	}
	server, err := NewServerSession(priv, hello)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	sealBuf := make([]byte, 0, len(msg)+SessionOverhead)
	openBuf := make([]byte, 0, len(msg))
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := client.Seal(sealBuf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := server.Open(openBuf[:0], frame); err != nil {
			b.Fatal(err)
		}
	}
}

// The handshake cost a connection pays once, however many reports it
// then streams.
func BenchmarkSessionHandshake(b *testing.B) {
	priv, err := GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	pub := priv.Public()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hello, err := NewClientSession(pub)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewServerSession(priv, hello); err != nil {
			b.Fatal(err)
		}
	}
}

// The SS user cost: one onion with r+1 layers.
func BenchmarkOnionEncrypt4Hops(b *testing.B) {
	var pubs []*PublicKey
	for i := 0; i < 4; i++ {
		k, err := GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		pubs = append(pubs, k.Public())
	}
	msg := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OnionEncrypt(pubs, msg); err != nil {
			b.Fatal(err)
		}
	}
}
