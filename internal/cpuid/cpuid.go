// Package cpuid is the one CPUID probe of the repository's assembly
// kernels: internal/ahe's Montgomery multiplications and internal/hash's
// support count each pick a kernel from these features once, with no
// option. Off amd64 every feature is the constant false and the
// kernels' portable Go runs.
package cpuid
