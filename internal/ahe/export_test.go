package ahe

// Hooks for the external test package (ahe_test), whose benchmark runs
// protocol.PEOS, which imports this package, on each kernel. Nothing
// that ships can choose a kernel.

// KernelKey is a private key pinned to one Montgomery kernel.
type KernelKey struct {
	Name string
	Key  *DGKPrivateKey
}

// KernelKeys returns key once per Montgomery kernel this CPU runs, the
// portable one first.
func KernelKeys(key *DGKPrivateKey) []KernelKey {
	var keys []KernelKey
	for _, kern := range []kernel{kernelPortable, kernelADX, kernelIFMA} {
		if missingFeature(kern) == "" {
			keys = append(keys, KernelKey{kernelNames[kern], onKernel(key, kern)})
		}
	}
	return keys
}
