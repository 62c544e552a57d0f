// Package rng provides deterministic, splittable pseudo-random number
// streams and the probability distributions used by the simulator.
//
// The paper's simulation was written in CSIM, which gives every model
// component its own random stream so that changing one component does
// not perturb the arrival pattern seen by another.  We reproduce that
// discipline: a Source is split into independent Streams by name, and
// each Stream is a self-contained PCG-XSH-RR generator.  Everything is
// reproducible from a single root seed.
package rng

import (
	"math"
	"strconv"
)

// Stream is a deterministic pseudo-random number generator based on
// PCG-XSH-RR 64/32 (O'Neill 2014).  It is intentionally tiny: 16 bytes
// of state, no heap allocation per draw, and fully reproducible.
type Stream struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// NewStream returns a Stream seeded with seed on sequence seq.  Two
// streams with different seq values are statistically independent even
// when they share a seed.
func NewStream(seed, seq uint64) *Stream {
	s := newStream(seed, seq)
	return &s
}

// newStream builds the stream as a value, so callers that store it in
// place (a slice of per-station streams) allocate nothing.
func newStream(seed, seq uint64) Stream {
	s := Stream{inc: (seq << 1) | 1}
	s.next()
	s.state += seed
	s.next()
	return s
}

// next advances the generator and returns 32 uniform bits.
func (s *Stream) next() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns 64 uniform random bits.
func (s *Stream) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 bits of mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).  It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation on 32 bits when
	// possible, falling back to 64-bit modulo for huge n.
	if n <= math.MaxInt32 {
		bound := uint32(n)
		threshold := -bound % bound
		for {
			r := s.next()
			m := uint64(r) * uint64(bound)
			if uint32(m) >= threshold {
				return int(m >> 32)
			}
		}
	}
	return int(s.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp called with non-positive mean")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Source derives independent named Streams from a single root seed.
// The name is hashed into the PCG sequence selector, so adding a new
// consumer never perturbs existing consumers.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns the stream uniquely identified by name.  Calling it
// twice with the same name returns streams that generate identical
// sequences.
func (s *Source) Stream(name string) *Stream {
	return NewStream(s.seed, fnv1a(fnvOffset64, name))
}

// StreamN returns the stream for a name/index pair, for per-entity
// streams such as one stream per display station.  It is the stream
// named name + "/" + the decimal n.
func (s *Source) StreamN(name string, n int) *Stream {
	st := s.streamN(name, n)
	return &st
}

// streamN builds StreamN's stream as a value, hashing the name and the
// decimal index formatted in a stack buffer, so the inlined StreamN
// stored in place allocates nothing.
func (s *Source) streamN(name string, n int) Stream {
	buf := [24]byte{'/'}
	seq := fnv1a(fnv1a(fnvOffset64, name), strconv.AppendInt(buf[:1], int64(n), 10))
	return newStream(s.seed, seq)
}

// The 64-bit FNV-1a offset basis and prime, as in hash/fnv.
const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// fnv1a folds b into the FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}
