package tables

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := New("My Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long", "22")
	out := tb.String()
	if !strings.Contains(out, "My Title") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	// Columns align: 'value' column starts at the same offset in every
	// data line.
	header := lines[1]
	col := strings.Index(header, "value")
	for _, l := range lines[3:] {
		cell := strings.TrimRight(l[col:], " ")
		if cell != "1" && cell != "22" {
			t.Fatalf("misaligned column: %q", l)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddRow("x")
	tb.AddRow("y", "z", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Error("extra cell dropped")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Error("F wrong")
	}
	if Seconds(0.5) != "0.500s" {
		t.Errorf("Seconds = %q", Seconds(0.5))
	}
	if Percent(12.345) != "12.35%" {
		t.Errorf("Percent = %q", Percent(12.345))
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("title", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "##########") {
		t.Fatalf("bar chart wrong:\n%s", out)
	}
	// Mismatched input degrades gracefully.
	if out := BarChart("t", []string{"a"}, nil, 10); !strings.Contains(out, "no data") {
		t.Error("mismatch should render no data")
	}
	// All-zero values draw no bars but render.
	if out := BarChart("", []string{"a"}, []float64{0}, 10); !strings.Contains(out, "a |") {
		t.Error("zero bar missing label")
	}
}

func TestLineChart(t *testing.T) {
	out := LineChart("plot", []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}, 40, 10)
	if !strings.Contains(out, "plot") || !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Fatalf("line chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("marks missing")
	}
}

func TestLineChartDegenerate(t *testing.T) {
	if out := LineChart("", nil, 10, 5); !strings.Contains(out, "no data") {
		t.Error("empty series should render no data")
	}
	// Constant series must not divide by zero.
	out := LineChart("", []Series{{Name: "c", X: []float64{1, 1}, Y: []float64{3, 3}}}, 10, 5)
	if !strings.Contains(out, "c") {
		t.Error("constant series failed to render")
	}
}
