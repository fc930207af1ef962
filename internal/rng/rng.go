// Package rng is the simulator's one random source: math/rand's generator,
// seeded without math/rand's serial division chain. A *rand.Rand over it
// draws exactly what one over math/rand's source with the same seed draws.
package rng

const (
	length = 607 // words of generator state
	tap    = 273 // lag of the second tap

	chainMod  = 1<<31 - 1 // the seed chain's modulus, a Mersenne prime
	chainMult = 48271     // the seed chain's multiplier
	skip      = 20        // chain steps math/rand discards before the first word
)

// Source is math/rand's additive lagged Fibonacci generator with its Seed
// mapping: the same seed yields the same Int63 and Uint64 stream. It
// implements rand.Source64.
type Source struct {
	tap, feed int
	vec       [length]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// chainPow[k] is chainMult^(skip+1+k) mod chainMod. math/rand builds word
// i of its state from steps skip+1+3i, +2 and +3 of the chain
// x ↦ chainMult·x mod chainMod, so step n from x₀ is chainMult^n·x₀: each
// word is three independent products instead of three serial divisions.
var chainPow = func() (t [3 * length]uint32) {
	p := uint64(1)
	for k := -skip; k < len(t); k++ {
		if p = p * chainMult % chainMod; k >= 0 {
			t[k] = uint32(p)
		}
	}
	return t
}()

// Seed sets the state math/rand's Seed sets for seed.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, length-tap
	seed %= chainMod
	if seed < 0 {
		seed += chainMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := chainPow[3*i : 3*i+3 : 3*i+3]
		u := mulMod(p[0], x)<<40 ^ mulMod(p[1], x)<<20 ^ mulMod(p[2], x)
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

// mulMod is p·x mod chainMod for p, x < chainMod, by folding the 62-bit
// product's high bits onto its low 31 (2³¹ ≡ 1).
func mulMod(p uint32, x uint64) uint64 {
	v := uint64(p) * x
	v = v&chainMod + v>>31
	if v >= chainMod {
		v -= chainMod
	}
	return v
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += length
	}
	if s.feed--; s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
