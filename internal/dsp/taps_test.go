package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference implementations spell the canonical order out literally
// (lane i mod 4, fixed combine tree, sequential tail) so the tests pin the
// contract itself, not just agreement between two fast paths.

func newTapRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func dotRef(a, b []float64) float64 {
	var lane [4]float64
	body := len(a) &^ 3
	for i := 0; i < body; i++ {
		lane[i%4] += float64(a[i] * b[i])
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for i := body; i < len(a); i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

func updateRef(w, fx []float64, leak, muE float64) {
	for i := range w {
		w[i] = float64(w[i]*leak) - float64(muE*fx[i])
	}
}

// sameBits reports bit equality, treating any two NaNs as equal (the
// kernels promise NaN for NaN, not a particular payload).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// tapInputs draws three length-n slices starting off elements into their
// backing arrays (so vector loads see every alignment). With specials set,
// about one value in eight is replaced by ±Inf, NaN, a subnormal or ±0.
func tapInputs(rng *rand.Rand, n, off int, specials bool) (w, fx, x []float64) {
	mk := func() []float64 {
		s := make([]float64, n+off)[off:]
		for i := range s {
			s[i] = rng.NormFloat64()
			if specials && rng.Float64() < 0.125 {
				switch rng.Intn(6) {
				case 0:
					s[i] = math.Inf(1)
				case 1:
					s[i] = math.Inf(-1)
				case 2:
					s[i] = math.NaN()
				case 3:
					s[i] = 5e-324 * float64(1+rng.Intn(1000))
				case 4:
					s[i] = -math.SmallestNonzeroFloat64
				default:
					s[i] = math.Copysign(0, rng.NormFloat64())
				}
			}
		}
		return s
	}
	return mk(), mk(), mk()
}

// checkKernels runs the exported kernels on one input and compares them
// with the references: Dot, Update, and UpdateDot both as weights and as
// the returned sum.
func checkKernels(t *testing.T, w, fx, x []float64, leak, muE float64) {
	t.Helper()
	if got, want := Dot(w, x), dotRef(w, x); !sameBits(got, want) {
		t.Fatalf("n=%d Dot = %v, canonical order gives %v", len(w), got, want)
	}
	wantW := append([]float64(nil), w...)
	updateRef(wantW, fx, leak, muE)
	wantSum := dotRef(wantW, x)

	gotW := append([]float64(nil), w...)
	Update(gotW, fx, leak, muE)
	for i := range gotW {
		if !sameBits(gotW[i], wantW[i]) {
			t.Fatalf("n=%d leak=%v Update w[%d] = %v, want %v", len(w), leak, i, gotW[i], wantW[i])
		}
	}
	gotW = append(gotW[:0], w...)
	sum := UpdateDot(gotW, fx, x, leak, muE)
	for i := range gotW {
		if !sameBits(gotW[i], wantW[i]) {
			t.Fatalf("n=%d leak=%v UpdateDot w[%d] = %v, want %v", len(w), leak, i, gotW[i], wantW[i])
		}
	}
	if !sameBits(sum, wantSum) {
		t.Fatalf("n=%d leak=%v UpdateDot sum = %v, want %v", len(w), leak, sum, wantSum)
	}
}

// TestTapKernelsCanonicalOrder pins every exported kernel to the literal
// canonical order on whichever implementation this platform selects.
func TestTapKernelsCanonicalOrder(t *testing.T) {
	rng := newTapRNG(5)
	for n := 0; n <= 300; n++ {
		for off := 0; off < 4; off++ {
			for _, specials := range []bool{false, true} {
				w, fx, x := tapInputs(rng, n, off, specials)
				for _, leak := range []float64{1, 0.9995} {
					checkKernels(t, w, fx, x, leak, 0.013*rng.NormFloat64())
				}
			}
		}
	}
}

// TestTapKernelsShortOperands checks that a second operand shorter than
// the weights is rejected rather than read past its end.
func TestTapKernelsShortOperands(t *testing.T) {
	for name, f := range map[string]func(){
		"Dot":       func() { Dot(make([]float64, 8), make([]float64, 7)) },
		"Update":    func() { Update(make([]float64, 8), make([]float64, 7), 1, 1) },
		"UpdateDot": func() { UpdateDot(make([]float64, 8), make([]float64, 8), make([]float64, 7), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a short operand", name)
				}
			}()
			f()
		}()
	}
}

func TestTapKernelsAllocateNothing(t *testing.T) {
	w, fx, x := tapInputs(newTapRNG(7), 65, 0, false)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += Dot(w, x)
		sink += UpdateDot(w, fx, x, 0.9995, 1e-4)
		Update(w, fx, 1, 1e-4)
	})
	if allocs != 0 {
		t.Fatalf("tap kernels allocate %v per run", allocs)
	}
	_ = sink
}

// FuzzTapKernels decodes three equal-length float64 slices from the bytes
// (w, fx and x interleaved, 24 bytes per tap) at slice offset off mod 4, and
// checks the exported kernels against the canonical-order references. The
// seed corpus is in testdata/fuzz/FuzzTapKernels.
func FuzzTapKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, off uint8, leak, muE float64) {
		n := len(data) / 24
		o := int(off % 4)
		w := make([]float64, n+o)[o:]
		fx := make([]float64, n+o)[o:]
		x := make([]float64, n+o)[o:]
		for i := 0; i < n; i++ {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[24*i:]))
			fx[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[24*i+8:]))
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[24*i+16:]))
		}
		checkKernels(t, w, fx, x, leak, muE)
	})
}

var benchSink float64

// BenchmarkTapKernels times each kernel at the tap counts the workloads
// run: 3 and 4 (fleet channels), 63 (simulator secondary-path estimate),
// 65 (fleet LANC) and 193 (simulator LANC), on the selected implementation
// and on the portable one.
func BenchmarkTapKernels(b *testing.B) {
	type impl struct {
		name      string
		dot       func(a, b []float64) float64
		updateDot func(w, fx, x []float64, leak, muE float64) float64
		update    func(w, fx []float64, leak, muE float64)
	}
	impls := []impl{
		{"selected", Dot, UpdateDot, Update},
		{"generic", dotGeneric, updateDotGeneric, updateGeneric},
	}
	for _, n := range []int{3, 4, 63, 65, 193} {
		w, fx, x := tapInputs(newTapRNG(8), n, 0, false)
		for _, im := range impls {
			b.Run(fmt.Sprintf("Dot/n=%d/%s", n, im.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += im.dot(w, x)
				}
			})
			b.Run(fmt.Sprintf("UpdateDot/n=%d/%s", n, im.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink += im.updateDot(w, fx, x, 1, 1e-9)
				}
			})
			b.Run(fmt.Sprintf("Update/n=%d/%s", n, im.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					im.update(w, fx, 1, 1e-9)
				}
			})
		}
	}
}
