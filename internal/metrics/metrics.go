// Package metrics holds the statistics of the experiments, flround and the
// soak tests: streaming moments, quantiles and box plots (Fig. 4b), speedup
// tables (Fig. 3a), and plain-text/CSV rendering of result tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stream accumulates count, mean, and variance online (Welford).
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the observation count.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Stream) Max() float64 { return s.max }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted copy. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("metrics: quantile of empty data")
	}
	if q < 0 || q > 1 {
		panic("metrics: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Box holds five-number box-plot statistics, the format of Fig. 4b.
type Box struct {
	Min, Q1, Median, Q3, Max float64
}

// BoxStats computes the five-number summary of xs.
func BoxStats(xs []float64) Box {
	return Box{
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}
}

// Spread returns Max/Min, the round-to-round variability factor the paper
// quotes (≈30× for gRPC).
func (b Box) Spread() float64 {
	if b.Min <= 0 {
		return math.Inf(1)
	}
	return b.Max / b.Min
}

// Speedup converts a series of times into speedups relative to the first
// entry: out[i] = times[0]/times[i].
func Speedup(times []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		if t <= 0 {
			panic("metrics: non-positive time in speedup")
		}
		out[i] = times[0] / t
	}
	return out
}

// Table is a simple column-oriented result table rendered as aligned text
// or CSV; every experiment driver reports through it.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it panics if the cell count mismatches the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: each value is rendered with %v
// for strings and %.4g for floats.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", x)
		}
	}
	t.AddRow(cells...)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
