package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 6} {
		s.Observe(v)
	}
	if s.Mean() != 4 {
		t.Errorf("Mean = %v, want 4", s.Mean())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Error("empty sample should report a zero mean")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 8, 0, -1}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean ignoring non-positives = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			xs = append(xs, float64(v)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Benchmark", "XBar/OCM")
	tab.AddRow("FFT", "8.10")
	tab.AddRow("LongBenchmarkName", "1.00")
	s := tab.String()
	if !strings.Contains(s, "FFT") || !strings.Contains(s, "8.10") {
		t.Fatalf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("separator width mismatch:\n%s", s)
	}
}

func TestTailExactOrderStatistic(t *testing.T) {
	var tl Tail
	tl.Reset(100)
	for i := 100; i >= 1; i-- {
		tl.Observe(float64(i))
	}
	if got := tl.P99(); got != 99 {
		t.Errorf("P99 of 1..100 = %v, want 99", got)
	}
	if tl.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", tl.Mean())
	}
	// Reset re-sizes for a new stream and forgets the old one.
	tl.Reset(3)
	for _, v := range []float64{7, 5, 6} {
		tl.Observe(v)
	}
	if got := tl.P99(); got != 7 {
		t.Errorf("P99 of {5,6,7} = %v, want 7", got)
	}
}

func TestTailEmpty(t *testing.T) {
	var tl Tail
	if tl.P99() != 0 {
		t.Error("zero-value tail P99 should be 0")
	}
	tl.Reset(0)
	tl.Observe(3)
	if tl.P99() != 0 || tl.Mean() != 3 {
		t.Errorf("tail sized for no values: P99/Mean = %v/%v, want 0/3", tl.P99(), tl.Mean())
	}
	tl.Reset(10)
	if tl.P99() != 0 || tl.Mean() != 0 {
		t.Error("empty tail should report zeros")
	}
}

// sortedP99 is the reference: the nearest-rank 99th percentile of a sorted
// copy of every value.
func sortedP99(vs []float64) float64 {
	s := slices.Clone(vs)
	sort.Float64s(s)
	return s[int(math.Ceil(99.0/100*float64(len(s))))-1]
}

// TestTailMatchesSort checks P99 against a full sort on streams that feed
// the heap in every order — each value a new root (increasing), none past
// the first m (decreasing), all ties (constant), and random — at lengths
// on both sides of every rank boundary, and that the heap never holds more
// than the m = n-⌈0.99n⌉+1 values the rank needs.
func TestTailMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"increasing", func(i, n int) float64 { return float64(i) * 0.2 }},
		{"decreasing", func(i, n int) float64 { return float64(n-i) * 0.2 }},
		{"constant", func(i, n int) float64 { return 4.2 }},
		{"random", func(i, n int) float64 { return float64(rng.Intn(50000)) * 0.2 }},
	}
	for _, n := range []int{1, 2, 99, 100, 101, 131072, 131073, 400000} {
		m := n - int(math.Ceil(0.99*float64(n))) + 1
		for _, st := range streams {
			name, gen := st.name, st.gen
			var tl Tail
			tl.Reset(n)
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = gen(i, n)
				tl.Observe(vs[i])
				if len(tl.top) > m {
					t.Fatalf("%s n=%d: heap holds %d values after %d observations, want at most %d",
						name, n, len(tl.top), i+1, m)
				}
			}
			if got, want := tl.P99(), sortedP99(vs); got != want {
				t.Errorf("%s n=%d: P99 = %v, want %v", name, n, got, want)
			}
		}
	}
}

// FuzzTail feeds fuzzed values in fuzzed order: P99 must equal the sort
// order statistic, and Mean a plain Sample's fed the same stream, bit for
// bit.
func FuzzTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 0x40}, 150))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []float64
		for ; len(data) >= 8; data = data[8:] {
			// Latencies are never NaN; every other float, ±Inf included,
			// is in range.
			if v := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
		var tl Tail
		var ref Sample
		tl.Reset(len(vs))
		for _, v := range vs {
			tl.Observe(v)
			ref.Observe(v)
		}
		want := 0.0
		if len(vs) > 0 {
			want = sortedP99(vs)
		}
		if got := tl.P99(); got != want {
			t.Fatalf("P99 = %v, want %v over %v", got, want, vs)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(tl.Mean(), ref.Mean()) {
			t.Fatalf("Mean = %v, Sample gives %v", tl.Mean(), ref.Mean())
		}
	})
}

// BenchmarkTailObserve measures the hot Observe path — every retired
// request of every sweep cell funnels through it — on a stream sized like
// a default 20,000-request cell, so the heap holds 201 values and the
// scattered values keep replacing its root.
func BenchmarkTailObserve(b *testing.B) {
	values := make([]float64, 1024)
	for i := range values {
		values[i] = float64((i*2654435761)%100000) / 7
	}
	var tl Tail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%20000 == 0 {
			tl.Reset(20000)
		}
		tl.Observe(values[i&1023])
	}
}
