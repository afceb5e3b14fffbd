//go:build !amd64

package kernel

// registerPlatformKernels has no vector kernels to install off amd64:
// the portable ones stay.
func registerPlatformKernels() {}
