// Package xrand provides the deterministic random number generator used by
// every stochastic component of the reproduction: workload generators, fault
// injectors, and benchmark parameter sweeps.
//
// All randomness in the simulation flows from explicitly seeded RNG values so
// that experiments are reproducible bit for bit. The generator is SplitMix64,
// which is small, fast, and passes BigCrush; it is not cryptographic and must
// never be used for key material outside deterministic simulation
// (internal/cryptoshred defaults to crypto/rand; experiments that must
// produce byte-identical ciphertext across runs inject NewReader via
// Vault.SetRand, trading security for reproducibility inside the sandbox).
package xrand

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. It is not safe
// for concurrent use; give each goroutine its own RNG (use Split).
type RNG struct {
	state uint64
}

// New returns an RNG seeded with seed. Distinct seeds yield independent
// streams for practical purposes.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, independent RNG from r. It advances r once, so the
// parent stream is not replayed by the child.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns an int in [0, n). It panics if n <= 0, matching math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bytes fills p with pseudo-random bytes.
func (r *RNG) Bytes(p []byte) {
	i := 0
	for i+8 <= len(p) {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
		i += 8
	}
	if i < len(p) {
		v := r.Uint64()
		for ; i < len(p); i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}

// Reader adapts an RNG to io.Reader (never errors). Like the RNG it is
// not safe for concurrent use.
type Reader struct {
	r *RNG
}

// NewReader returns a deterministic byte stream seeded with seed, for
// injecting into components that take an entropy source (e.g.
// cryptoshred.Vault.SetRand in the SC7 determinism harness).
func NewReader(seed uint64) *Reader {
	return &Reader{r: New(seed)}
}

// Read fills p from the stream; it always returns len(p), nil.
func (rd *Reader) Read(p []byte) (int, error) {
	rd.r.Bytes(p)
	return len(p), nil
}

// Pick returns a pseudo-random element of xs. It panics on an empty slice.
func Pick[T any](r *RNG, xs []T) T {
	if len(xs) == 0 {
		panic("xrand: Pick from empty slice")
	}
	return xs[r.Intn(len(xs))]
}

// Zipf generates Zipf-distributed values in [0, n) with skew s > 1, using
// rejection-inversion sampling (the same algorithm as math/rand.Zipf). Skewed
// access to personal-data records is the standard model for the hot-subject
// workloads in the benchmark harness.
type Zipf struct {
	r                *RNG
	imax             float64
	v                float64
	q                float64
	s                float64
	oneminusQ        float64
	oneminusQinv     float64
	hxm              float64
	hx0minusHxm      float64
	hInvX0minusHInvM float64
}

// NewZipf returns a Zipf sampler over [0, imax] with parameters s > 1 and
// v >= 1. It returns nil if the parameters are out of range.
func NewZipf(r *RNG, s, v float64, imax uint64) *Zipf {
	if s <= 1.0 || v < 1 || r == nil {
		return nil
	}
	z := &Zipf{r: r, imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.hInvX0minusHInvM = z.s
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns a Zipf-distributed value in [0, imax].
func (z *Zipf) Uint64() uint64 {
	if z == nil {
		return 0
	}
	for {
		r := z.r.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
