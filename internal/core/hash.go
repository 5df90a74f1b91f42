package core

import (
	"math"
	"math/bits"
)

// fpHash is the package's one content-hash primitive: the result
// cache's 128-bit fingerprint (result_cache.go), the profile and
// template cache digests and the disk tier's schema version all feed
// it. It consumes 64-bit words, each through an xxh64-style round
// (multiply, rotate, multiply) in two lanes with different seeds,
// multipliers and rotations; strings are length-prefixed and consumed
// eight bytes per round. sum runs the xxh64 avalanche on each lane.
// It is a cache address, not a cryptographic hash.
type fpHash struct{ hi, lo uint64 }

// The xxh64 primes.
const (
	xxPrime1 = 0x9E3779B185EBCA87
	xxPrime2 = 0xC2B2AE3D27D4EB4F
	xxPrime3 = 0x165667B19E3779F9
	xxPrime4 = 0x85EBCA77C2B2AE63
	xxPrime5 = 0x27D4EB2F165667C5
)

func newFpHash() fpHash {
	return fpHash{hi: xxPrime5, lo: xxPrime4}
}

// u64 mixes one word into both lanes.
func (h *fpHash) u64(v uint64) {
	h.hi = bits.RotateLeft64(h.hi+v*xxPrime2, 31) * xxPrime1
	h.lo = bits.RotateLeft64(h.lo+v*xxPrime4, 27) * xxPrime3
}

func (h *fpHash) i(v int)     { h.u64(uint64(int64(v))) }
func (h *fpHash) f(v float64) { h.u64(math.Float64bits(v)) }
func (h *fpHash) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}
func (h *fpHash) str(s string)   { mixText(h, s) }
func (h *fpHash) bytes(b []byte) { mixText(h, b) }

// mixText mixes a length prefix, then s as little-endian words; the
// last partial word is zero-padded, which the prefix disambiguates.
func mixText[T string | []byte](h *fpHash, s T) {
	h.i(len(s))
	n := len(s)
	i := 0
	for ; i+8 <= n; i += 8 {
		h.u64(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	if i < n {
		var w uint64
		for k := 0; i+k < n; k++ {
			w |= uint64(s[i+k]) << (8 * k)
		}
		h.u64(w)
	}
}

// avalanche is xxh64's final mix: every input bit reaches every output
// bit.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

func (h *fpHash) sum() Fingerprint { return Fingerprint{Hi: avalanche(h.hi), Lo: avalanche(h.lo)} }

// sum64 is the 64-bit digest the in-memory cache keys use.
func (h *fpHash) sum64() uint64 { return avalanche(h.hi) }
