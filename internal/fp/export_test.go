package fp

import "testing"

// withStdlibSHA1 runs the rest of test t with Of forced onto its
// crypto/sha1 fallback, whatever the CPU offers.
func withStdlibSHA1(t testing.TB) {
	saved := useSHANI
	useSHANI = false
	t.Cleanup(func() { useSHANI = saved })
}
