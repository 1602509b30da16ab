// Package tables renders the reproduction's experiment results as aligned
// ASCII tables and simple character plots, standing in for the paper's
// figures and tables in terminal reports.
package tables

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled grid of string cells with aligned columns.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extra cells are
// kept (the widest row defines the grid).
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Columns)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Columns)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return fmt.Sprintf("tables: render failed: %v", err)
	}
	return sb.String()
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// Seconds formats a duration in seconds with millisecond resolution.
func Seconds(v float64) string {
	return F(v, 3) + "s"
}

// Percent formats a percentage with two decimals.
func Percent(v float64) string {
	return F(v, 2) + "%"
}
