package rng

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite cooked.go from math/rand")

// seedrand is math/rand's seed chain step, Schrage's method for
// chainMult·x mod chainMod: the serial division chain Seed replaces.
func seedrand(x int32) int32 {
	const q, r = chainMod / chainMult, chainMod % chainMult
	x = chainMult*(x%q) - r*(x/q)
	if x < 0 {
		x += chainMod
	}
	return x
}

// mathRandCooked rebuilds math/rand's cooked table from the state
// rand.NewSource(seed) holds: each word is the cooked word XORed with three
// steps of the seed chain, so XORing the chain's part off leaves the table.
func mathRandCooked(seed int64) (t [length]int64) {
	vec := reflect.ValueOf(rand.NewSource(seed)).Elem().FieldByName("vec")
	if vec.Len() != length {
		panic(fmt.Sprintf("math/rand state has %d words, want %d", vec.Len(), length))
	}
	seed %= chainMod
	if seed < 0 {
		seed += chainMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for range skip {
		x = seedrand(x)
	}
	for i := range t {
		var u int64
		for _, shift := range []int{40, 20, 0} {
			x = seedrand(x)
			u ^= int64(x) << shift
		}
		t[i] = vec.Index(i).Int() ^ u
	}
	return t
}

// TestCookedTable rebuilds cooked.go's table from math/rand under several
// seeds; -update rewrites the file.
func TestCookedTable(t *testing.T) {
	want := mathRandCooked(1)
	for _, seed := range []int64{0, -3, chainMod, math.MaxInt64} {
		if mathRandCooked(seed) != want {
			t.Fatalf("the cooked table rebuilt from seed %d differs from seed 1's", seed)
		}
	}
	if *update {
		var b bytes.Buffer
		b.WriteString("// Code generated by `go test ./internal/rng -run TestCookedTable -update`; DO NOT EDIT.\n\n")
		b.WriteString("package rng\n\n// cooked is math/rand's rngCooked: the words Seed XORs onto the seed chain.\n")
		b.WriteString("var cooked = [length]int64{\n")
		for i, w := range want {
			fmt.Fprintf(&b, "%d,", w)
			if i%4 == 3 {
				b.WriteByte('\n')
			}
		}
		b.WriteString("\n}\n")
		src, err := format.Source(b.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("cooked.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i := range want {
		if cooked[i] != want[i] {
			t.Fatalf("cooked[%d] = %d, math/rand has %d: run with -update", i, cooked[i], want[i])
		}
	}
}

// draw is the i-th draw of a sequence that cycles through every rand.Rand
// method the simulator calls, as bits.
func draw(r *rand.Rand, i int) uint64 {
	n := i%1000 + 1
	switch i % 10 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Int63n(int64(n)))
	case 3:
		return uint64(r.Int63n(int64(n)<<40 + 3)) // past Int31n's range
	case 4:
		return uint64(r.Intn(n))
	case 5:
		return math.Float64bits(r.Float64())
	case 6:
		return math.Float64bits(r.ExpFloat64())
	case 7:
		return math.Float64bits(r.NormFloat64())
	case 8:
		var h uint64
		for _, v := range r.Perm(n % 17) {
			h = h*31 + uint64(v)
		}
		return h
	default:
		s := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
		r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
		var h uint64
		for _, v := range s {
			h = h*31 + v
		}
		return h
	}
}

// requireSameDraws fails unless a Rand over New(seed) makes the same draws
// as one over rand.NewSource(seed).
func requireSameDraws(t *testing.T, seed int64, draws int) {
	t.Helper()
	got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if g, w := draw(got, i), draw(want, i); g != w {
			t.Fatalf("seed %d, draw %d: got %#x, math/rand %#x", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, 42, 89482311, -1, -89482311, -chainMod - 1,
		chainMod, 2 * chainMod, -5 * chainMod, chainMod * chainMod,
		math.MinInt64, math.MaxInt64,
	}
	for _, seed := range seeds {
		requireSameDraws(t, seed, 10000)
	}
}

// TestSourceReseed checks that Seed on a drawn-from Source restarts the
// stream, as math/rand's does.
func TestSourceReseed(t *testing.T) {
	s := New(5)
	for range 1000 {
		s.Uint64()
	}
	s.Seed(-9)
	want := rand.NewSource(-9).(rand.Source64)
	for i := range 2000 {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after reseed: got %#x, math/rand %#x", i, g, w)
		}
	}
}

// FuzzSource is the differential check against math/rand over any seed.
func FuzzSource(f *testing.F) {
	f.Add(int64(0), uint16(100))
	f.Add(int64(math.MinInt64), uint16(3000))
	f.Add(int64(chainMod), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		requireSameDraws(t, seed, int(draws))
	})
}

// BenchmarkSeed is one seeding, the cost every simulated job pays once
// per random stream.
func BenchmarkSeed(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		s := new(Source)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
