package viz

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

func figureDiagram(t *testing.T) *core.Diagram {
	t.Helper()
	d, err := core.NewDiagram([]core.Element{
		{ID: 1, Priority: 4, Period: 10, Length: 2, Mode: core.Direct},
		{ID: 2, Priority: 3, Period: 15, Length: 3, Mode: core.Indirect, Via: []stream.ID{1}},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	d.Modify()
	return d
}

// wellFormed parses the SVG as XML.
func wellFormed(t *testing.T, svg string) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTimingDiagramSVG(t *testing.T) {
	d := figureDiagram(t)
	svg := TimingDiagramSVG(d, "Figure <4> & friends", 0)
	wellFormed(t, svg)
	for _, want := range []string{"M1", "M2*", "result", "allocated", "&lt;4&gt; &amp;"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// One rect per cell per row (2 elements + result = 3 rows x 30
	// cols) plus 4 legend swatches.
	if got := strings.Count(svg, "<rect"); got != 3*30+4 {
		t.Fatalf("rect count %d, want %d", got, 3*30+4)
	}
	// Truncation.
	short := TimingDiagramSVG(d, "t", 10)
	if got := strings.Count(short, "<rect"); got != 3*10+4 {
		t.Fatalf("truncated rect count %d", got)
	}
}

func TestScatterSVG(t *testing.T) {
	pts := []ScatterPoint{
		{X: 100, Y: 0.2, Line: true},
		{X: 200, Y: 0.5, Line: true},
		{X: 400, Y: 1.0, Line: true, Highlight: true},
		{X: 300, Y: 0.3},
	}
	svg := ScatterSVG("frontier <1>", "cost", "admitted util", pts)
	wellFormed(t, svg)
	if got := strings.Count(svg, "<circle"); got != 4 {
		t.Fatalf("circle count %d, want 4", got)
	}
	if strings.Count(svg, "<polyline") != 1 {
		t.Fatalf("missing frontier polyline:\n%s", svg)
	}
	if !strings.Contains(svg, "&lt;1&gt;") {
		t.Fatal("title not escaped")
	}
	// The highlighted winner is drawn filled.
	if !strings.Contains(svg, `fill="#c53030"`) {
		t.Fatal("highlight missing")
	}
	// Degenerate inputs still render.
	wellFormed(t, ScatterSVG("empty", "x", "y", nil))
	wellFormed(t, ScatterSVG("single", "x", "y", []ScatterPoint{{X: 1, Y: 1}}))
}

func TestScatterSVGDeterministic(t *testing.T) {
	pts := []ScatterPoint{{X: 1, Y: 0.1, Line: true}, {X: 2, Y: 0.9, Line: true}}
	a := ScatterSVG("t", "x", "y", pts)
	b := ScatterSVG("t", "x", "y", pts)
	if a != b {
		t.Fatal("same inputs, different SVG")
	}
}
