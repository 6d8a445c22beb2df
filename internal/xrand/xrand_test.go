package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided %d/1000 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	if parent == child {
		t.Fatal("Split returned the same RNG")
	}
	// The child stream must not replay the parent stream.
	p := New(7)
	p.Uint64() // account for the advance Split performed
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			// A single collision is possible but 100 successive ones are not;
			// any mismatch breaks the loop implicitly via the counter below.
			continue
		}
		return // diverged: independent
	}
	t.Fatal("child stream replays parent stream")
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(4)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	trues := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %.3f, want ~0.25", frac)
	}
}

func TestBytesFills(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64} {
		p := make([]byte, n)
		r.Bytes(p)
		if n >= 16 {
			zero := 0
			for _, b := range p {
				if b == 0 {
					zero++
				}
			}
			if zero == n {
				t.Fatalf("Bytes(%d) left buffer all zero", n)
			}
		}
	}
}

func TestPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick on empty slice did not panic")
		}
	}()
	Pick(New(1), []int(nil))
}

func TestZipfSkew(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 1.2, 1, 999)
	if z == nil {
		t.Fatal("NewZipf returned nil for valid params")
	}
	counts := make([]int, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v > 999 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate the tail: the head of a Zipf(1.2) distribution
	// over 1000 items receives far more mass than items ranked >= 500.
	tail := 0
	for _, c := range counts[500:] {
		tail += c
	}
	if counts[0] < tail {
		t.Fatalf("Zipf head count %d < tail mass %d; distribution not skewed", counts[0], tail)
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	r := New(1)
	if z := NewZipf(r, 1.0, 1, 10); z != nil {
		t.Fatal("NewZipf accepted s=1.0")
	}
	if z := NewZipf(r, 2.0, 0.5, 10); z != nil {
		t.Fatal("NewZipf accepted v=0.5")
	}
	if z := NewZipf(nil, 2.0, 1, 10); z != nil {
		t.Fatal("NewZipf accepted nil RNG")
	}
}
