package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"

	"shuffledp/internal/ahe"
)

// The DGK key fixtures: NOT FOR PRODUCTION. They are checked in only
// so setup_s measures key load plus the fixed-base table build — a
// deterministic amount of work — instead of a safe-prime search whose
// duration is random. Anyone can read the private factors from this
// repository; a deployment generates its own key with ahe.GenerateDGK.
//
//go:embed testdata/dgk1024.key testdata/dgk512.key
var keyFixtures embed.FS

// keyFixtureName names the fixture file for a modulus width.
func keyFixtureName(bits int) string { return fmt.Sprintf("dgk%d.key", bits) }

// keyBlob returns the marshalled benchmark-only DGK private key with a
// bits-wide modulus and the 64-bit plaintext space PEOS requires.
func keyBlob(bits int) ([]byte, error) {
	return keyFixtures.ReadFile("testdata/" + keyFixtureName(bits))
}

// regenKeys writes fresh fixtures under dir/testdata (the -regen-keys
// mode). Results recorded against the old fixtures stay comparable:
// every 1024-bit DGK key costs the same per operation.
func regenKeys(dir string) error {
	for _, bits := range []int{1024, 512} {
		priv, err := ahe.GenerateDGK(bits, 64)
		if err != nil {
			return fmt.Errorf("generating %d-bit DGK key: %w", bits, err)
		}
		path := filepath.Join(dir, "testdata", keyFixtureName(bits))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, ahe.MarshalDGKPrivateKey(priv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (benchmark-only key, not for production)\n", path)
	}
	return nil
}
