package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV export so results can feed external plotting tools; the registry
// runners render it for FormatCSV, which cmd/deta-bench exposes via
// -format csv.

// RenderCSV writes the table as CSV rows (header first). Notes become
// trailing comment-style rows prefixed with "#".
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if t.Title != "" {
		if err := cw.Write([]string{"# " + t.Title}); err != nil {
			return err
		}
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderCSV writes the figure as CSV: one row per X value, one column per
// series.
func (f *Figure) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if f.Title != "" {
		if err := cw.Write([]string{"# " + f.Title}); err != nil {
			return err
		}
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, x := range f.X {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
