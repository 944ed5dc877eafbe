// Package stats provides the measurement primitives used by the simulation:
// latency samples with an exact tail percentile, and the aggregate
// statistics (geometric means) and text tables reported in the paper's
// evaluation.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Sample accumulates a stream of values and reports their mean.
type Sample struct {
	count uint64
	sum   float64
}

// Observe adds one value to the sample.
func (s *Sample) Observe(v float64) {
	s.count++
	s.sum += v
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Tail is a Sample that also reports the exact 99th percentile of a stream
// whose length n is named up front. The P99 is the nearest-rank order
// statistic at sorted index ⌈0.99·n⌉−1, so only the m = n−⌈0.99·n⌉+1
// largest values can be it: Tail keeps exactly those in a min-heap, whose
// root is the P99 once all n values are in: about n/100 floats at any run
// length.
type Tail struct {
	Sample
	keep int       // m, the heap's capacity
	top  []float64 // min-heap of the keep largest values observed
}

// Reset empties the tail and sizes it for a stream of n values, keeping
// grown heap capacity.
func (t *Tail) Reset(n int) {
	t.Sample = Sample{}
	t.keep = 0
	if n > 0 {
		t.keep = n - (int(math.Ceil(99.0/100*float64(n))) - 1)
	}
	t.top = slices.Grow(t.top[:0], t.keep)
}

// Observe adds one value.
func (t *Tail) Observe(v float64) {
	t.Sample.Observe(v)
	h := t.top
	switch {
	case len(h) < t.keep:
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			up := (i - 1) / 2
			if h[up] <= h[i] {
				break
			}
			h[up], h[i] = h[i], h[up]
			i = up
		}
		t.top = h
	case len(h) > 0 && v > h[0]:
		h[0] = v
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
}

// P99 returns the 99th percentile of the stream named to Reset — exact once
// all of it has been observed — or 0 for an empty tail.
func (t *Tail) P99() float64 {
	if len(t.top) == 0 {
		return 0
	}
	return t.top[0]
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// (matching the paper's geometric-mean speedups). An empty input returns 0.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table is a simple fixed-column text table used by the sweep harness to
// print paper figures as rows. It right-aligns numeric cells.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Header) {
		cells = cells[:len(t.Header)]
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i == 0 {
			b.WriteString(strings.Repeat("-", w))
		} else {
			b.WriteString("  " + strings.Repeat("-", w))
		}
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
