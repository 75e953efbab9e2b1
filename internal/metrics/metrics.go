// Package metrics provides the statistics and table formatting of the
// experiment harness (cmd/hvacbench), the server's latency histograms and
// the Name=value stats line hvacd and hvacc print: sample summaries (mean,
// spread, CV, quantiles), CDFs, and fixed-width table rendering.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates observations and summarises them.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stddev returns the sample standard deviation (n-1 denominator).
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF returns (x, F(x)) pairs over the sorted observations, suitable for
// plotting a cumulative distribution.
func (s *Sample) CDF() (xs, fs []float64) {
	n := len(s.xs)
	if n == 0 {
		return nil, nil
	}
	xs = append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	fs = make([]float64, n)
	for i := range fs {
		fs[i] = float64(i+1) / float64(n)
	}
	return xs, fs
}

// CV returns the coefficient of variation (stddev/mean), a load-imbalance
// measure used in the Fig. 15 analysis.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stddev() / m
}

// Table renders labelled rows of float columns with a header, for the
// figure/table regeneration output.
type Table struct {
	Title   string
	Header  []string
	rows    [][]string
	colBase int
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row of preformatted cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddFloats appends a row with a string label followed by floats rendered
// with the given precision.
func (t *Table) AddFloats(label string, prec int, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", prec, v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned fixed-width columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", w, c)
			} else {
				fmt.Fprintf(&b, "%*s", w, c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}
