package stats

import "fmt"

// Collector is the reporting layer's reducer: it accumulates streamed
// per-point values into a dense rows x cols grid (rows are the group-by axis
// — workloads in the experiment suite; cols the configuration points) and
// then reduces the grid into Tables. It is generic so this package stays
// free of simulator types (core imports stats for histograms); the simulator
// instantiates it with its Result type and supplies cell reducers as
// closures.
//
// A Collector is filled in any order — Stream delivers completion order —
// and the reducers read it row-major, so the rendered table is independent
// of arrival order. Complete reports unfilled cells, which turns a silently
// partial stream into a loud error.
type Collector[T any] struct {
	rows, cols []string
	cells      []T
	filled     []bool
	missing    int
}

// NewCollector builds an empty rows x cols collector. The label slices fix
// the grid's dimensions and name cells in error messages.
func NewCollector[T any](rows, cols []string) *Collector[T] {
	n := len(rows) * len(cols)
	return &Collector[T]{
		rows:    rows,
		cols:    cols,
		cells:   make([]T, n),
		filled:  make([]bool, n),
		missing: n,
	}
}

// NumRows reports the grid's row count.
func (c *Collector[T]) NumRows() int { return len(c.rows) }

// RowLabel returns row r's label.
func (c *Collector[T]) RowLabel(r int) string { return c.rows[r] }

// Put records the value at (row, col). Refilling a cell overwrites it.
func (c *Collector[T]) Put(row, col int, v T) {
	if row < 0 || row >= len(c.rows) || col < 0 || col >= len(c.cols) {
		panic(fmt.Sprintf("stats: Collector.Put(%d, %d) outside %dx%d grid", row, col, len(c.rows), len(c.cols)))
	}
	i := row*len(c.cols) + col
	if !c.filled[i] {
		c.filled[i] = true
		c.missing--
	}
	c.cells[i] = v
}

// At returns the value at (row, col); the zero T when unfilled.
func (c *Collector[T]) At(row, col int) T { return c.cells[row*len(c.cols)+col] }

// Complete returns nil when every cell has been filled, else an error naming
// the first missing cell.
func (c *Collector[T]) Complete() error {
	if c.missing == 0 {
		return nil
	}
	for i, ok := range c.filled {
		if !ok {
			return fmt.Errorf("stats: collector missing %d of %d cells (first: %s x %s)",
				c.missing, len(c.cells), c.rows[i/len(c.cols)], c.cols[i%len(c.cols)])
		}
	}
	return nil
}

// Table reduces the grid one output row per collected row: the row label,
// then cell(row, col, value) for every column. The paper's "metric by
// configuration" shape (bus utilisation, IPC ablations).
func (c *Collector[T]) Table(title, corner string, headers []string, cell func(row, col int, v T) any) *Table {
	t := NewTable(title, append([]string{corner}, headers...)...)
	for r := range c.rows {
		out := make([]any, 0, len(c.cols)+1)
		out = append(out, c.rows[r])
		for col := range c.cols {
			out = append(out, cell(r, col, c.At(r, col)))
		}
		t.AddRow(out...)
	}
	return t
}

// TableVsBaseline reduces the grid against a per-row baseline column: column
// baseCol is consumed as each row's baseline and excluded from the output;
// every other column renders cell(value, baseline). The paper's "speedup
// over no-prefetch vs knob" figure shape.
func (c *Collector[T]) TableVsBaseline(title, corner string, headers []string, baseCol int, cell func(v, base T) any) *Table {
	t := NewTable(title, append([]string{corner}, headers...)...)
	for r := range c.rows {
		base := c.At(r, baseCol)
		out := make([]any, 0, len(c.cols))
		out = append(out, c.rows[r])
		for col := range c.cols {
			if col == baseCol {
				continue
			}
			out = append(out, cell(c.At(r, col), base))
		}
		t.AddRow(out...)
	}
	return t
}

// TablePaired reduces a grid whose columns are (baseline, variant) pairs —
// knob sweeps where the knob changes the baseline machine too. Column 2j is
// pair j's baseline, column 2j+1 its variant; each output cell is
// cell(variant, baseline).
func (c *Collector[T]) TablePaired(title, corner string, headers []string, cell func(v, base T) any) *Table {
	t := NewTable(title, append([]string{corner}, headers...)...)
	pairs := len(c.cols) / 2
	for r := range c.rows {
		out := make([]any, 0, pairs+1)
		out = append(out, c.rows[r])
		for j := 0; j < pairs; j++ {
			out = append(out, cell(c.At(r, 2*j+1), c.At(r, 2*j)))
		}
		t.AddRow(out...)
	}
	return t
}

// TableLong reduces the grid into long form — one output row per (row,
// column) pair, for tables that report several metrics per point. Column
// baseCol is each row's baseline (excluded from output; pass -1 for none,
// which hands cell the zero T as base); each remaining (row, col) emits a
// table row of [rowLabel, colLabel, cells(value, baseline)...].
func (c *Collector[T]) TableLong(title string, headers []string, baseCol int, cells func(v, base T) []any) *Table {
	t := NewTable(title, headers...)
	for r := range c.rows {
		var base T
		if baseCol >= 0 {
			base = c.At(r, baseCol)
		}
		for col := range c.cols {
			if col == baseCol {
				continue
			}
			out := make([]any, 0, 8)
			out = append(out, c.rows[r], c.cols[col])
			out = append(out, cells(c.At(r, col), base)...)
			t.AddRow(out...)
		}
	}
	return t
}

// ReduceCols folds every row's (value, baseline) pair per non-baseline
// column into a summary value — the gmean-speedup footer reducer. For each
// column except baseCol it collects f(value, baseline) over all rows and
// hands the slice to reduce; results come back in column order.
func (c *Collector[T]) ReduceCols(baseCol int, f func(v, base T) float64, reduce func([]float64) float64) []float64 {
	var out []float64
	vals := make([]float64, 0, c.NumRows())
	for col := range c.cols {
		if col == baseCol {
			continue
		}
		vals = vals[:0]
		for r := range c.rows {
			vals = append(vals, f(c.At(r, col), c.At(r, baseCol)))
		}
		out = append(out, reduce(vals))
	}
	return out
}
