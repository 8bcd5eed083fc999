// Package stats provides the measurement plumbing shared by the simulator:
// a fixed-geometry histogram, the sweep grid collector, rate helpers,
// geometric means, and fixed-width text tables in the style of the paper's result
// presentation.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Pct returns 100*n/d, or 0 when d == 0.
func Pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// PerKilo returns 1000*n/d (e.g. misses per kilo-instruction), or 0 when
// d == 0.
func PerKilo(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(d)
}

// Gmean returns the geometric mean of xs, ignoring non-positive entries
// (callers should pass speedup factors, never percentages that can be -100).
func Gmean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// GmeanSpeedupPct converts per-benchmark percentage gains into the geometric
// mean percentage gain: gmean(1+g_i/100) - 1, in percent.
func GmeanSpeedupPct(gainsPct []float64) float64 {
	factors := make([]float64, 0, len(gainsPct))
	for _, g := range gainsPct {
		factors = append(factors, 1+g/100)
	}
	g := Gmean(factors)
	if g == 0 {
		return 0
	}
	return (g - 1) * 100
}

// Table renders fixed-width text tables. Columns auto-size; numeric cells
// are right-aligned.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v, floats with 2 decimal
// places.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				if isNumeric(c) {
					parts[i] = fmt.Sprintf("%*s", widths[i], c)
				} else {
					parts[i] = fmt.Sprintf("%-*s", widths[i], c)
				}
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// JSON writes the table as one JSON object {title, headers, rows} — the
// machine-readable form for downstream tooling.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.headers, t.rows})
}

// CSV writes the table as comma-separated values (no title line).
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, r := range t.rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot, digit := false, false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digit = true
		case r == '-' && i == 0:
		case r == '.' && !dot:
			dot = true
		case r == '%' && i == len(s)-1:
		case r == 'x' || r == 'K' || r == 'M':
			// allow hex and unit suffixes to right-align
		default:
			return false
		}
	}
	return digit
}
