//go:build !amd64

package fp

import "crypto/sha1"

// useSHANI is false where there is no SHA-NI kernel: Of always takes
// crypto/sha1.
var useSHANI = false

func sumSHANI(data []byte) FP { return sha1.Sum(data) }
