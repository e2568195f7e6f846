// Package viz renders analysis artifacts as standalone SVG documents —
// timing diagrams in the style of the paper's Figures 4-9 and scatter
// plots — using nothing but string assembly, so the repository stays
// dependency-free. The SVGs open in any browser
// and are convenient for papers, slides and debugging sessions.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

const (
	cell   = 14 // timing-diagram cell size, px
	rowPad = 4
	left   = 70 // label gutter
	top    = 30
)

// cellFill maps a diagram cell state to its fill colour, following the
// paper's shading: allocated dark, waiting hatched (approximated by a
// mid tone), busy light, free white.
func cellFill(c core.Cell) string {
	switch c {
	case core.Allocated:
		return "#2b6cb0"
	case core.Waiting:
		return "#f6ad55"
	case core.Busy:
		return "#cbd5e0"
	default:
		return "#ffffff"
	}
}

// TimingDiagramSVG renders a (final or initial) timing diagram. The
// rows are the HP elements in diagram order plus the result row;
// maxCols truncates wide diagrams (0 = full horizon).
func TimingDiagramSVG(d *core.Diagram, title string, maxCols int) string {
	cols := d.Horizon
	if maxCols > 0 && maxCols < cols {
		cols = maxCols
	}
	// A diagram horizon never exceeds the Cal_U search cap; clamping
	// here makes that a local fact, so the pixel math below is provably
	// inside int64 (and a corrupt diagram cannot blow up the SVG).
	if cols < 0 {
		cols = 0
	}
	if cols > core.MaxSearchHorizon {
		cols = core.MaxSearchHorizon
	}
	rows := len(d.Elements) + 1
	width := left + cols*cell + 20
	height := top + rows*(cell+rowPad) + 50

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16" font-size="13">%s</text>`+"\n", left, escape(title))

	drawRow := func(rowIdx int, label string, cells []core.Cell) {
		y := top + rowIdx*(cell+rowPad)
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+cell-3, escape(label))
		for cIdx := 0; cIdx < cols; cIdx++ {
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#718096" stroke-width="0.4"/>`+"\n",
				left+cIdx*cell, y, cell, cell, cellFill(cells[cIdx]))
		}
	}
	for i, e := range d.Elements {
		label := fmt.Sprintf("M%d", e.ID)
		if e.Mode == core.Indirect {
			label += "*"
		}
		row, _ := d.Row(e.ID)
		drawRow(i, label, row)
	}
	drawRow(len(d.Elements), "result", d.ResultRow())

	// Time axis every 5 slots.
	axisY := top + rows*(cell+rowPad) + 12
	for cIdx := 4; cIdx < cols; cIdx += 5 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle" fill="#4a5568">%d</text>`+"\n",
			left+cIdx*cell+cell/2, axisY, cIdx+1)
	}
	// Legend.
	legendY := axisY + 18
	legend := []struct {
		c core.Cell
		t string
	}{{core.Allocated, "allocated"}, {core.Waiting, "waiting"}, {core.Busy, "busy"}, {core.Free, "free"}}
	x := left
	for _, l := range legend {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#718096" stroke-width="0.4"/>`+"\n",
			x, legendY-cell+3, cell, cell, cellFill(l.c))
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`+"\n", x+cell+4, legendY, l.t)
		x += cell + 4 + 9*len(l.t) + 14
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// ScatterPoint is one sample of a scatter plot. Highlighted points are
// drawn filled and larger (e.g. the synthesis winner); Line points are
// additionally connected by a step polyline in input order (e.g. a
// Pareto frontier).
type ScatterPoint struct {
	X, Y      float64
	Highlight bool
	Line      bool
}

// ScatterSVG renders an X-Y scatter with linear axes sized to the data
// range. Output is a pure function of the inputs (fixed canvas, fixed
// tick count, fixed decimal formatting) so plots can be pinned by
// golden tests.
func ScatterSVG(title, xLabel, yLabel string, pts []ScatterPoint) string {
	const (
		plotW  = 460.0
		plotH  = 280.0
		plotX  = 70.0
		plotY  = 40.0
		nTicks = 5
	)
	width := int(plotX + plotW + 30)
	height := int(plotY + plotH + 60)

	minX, maxX, minY, maxY := dataRange(pts)
	sx := func(x float64) float64 { return plotX + (x-minX)/(maxX-minX)*plotW }
	sy := func(y float64) float64 { return plotY + plotH - (y-minY)/(maxY-minY)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%.0f" y="20" font-size="13">%s</text>`+"\n", plotX, escape(title))
	fmt.Fprintf(&b, `<rect x="%.0f" y="%.0f" width="%.0f" height="%.0f" fill="none" stroke="#718096"/>`+"\n", plotX, plotY, plotW, plotH)

	// Axis ticks and grid lines.
	for i := 0; i <= nTicks; i++ {
		fx := minX + (maxX-minX)*float64(i)/nTicks
		fy := minY + (maxY-minY)*float64(i)/nTicks
		tx, ty := sx(fx), sy(fy)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.0f" x2="%.1f" y2="%.0f" stroke="#e2e8f0"/>`+"\n", tx, plotY, tx, plotY+plotH)
		fmt.Fprintf(&b, `<line x1="%.0f" y1="%.1f" x2="%.0f" y2="%.1f" stroke="#e2e8f0"/>`+"\n", plotX, ty, plotX+plotW, ty)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.0f" text-anchor="middle" fill="#4a5568">%s</text>`+"\n", tx, plotY+plotH+14, tickLabel(fx))
		fmt.Fprintf(&b, `<text x="%.0f" y="%.1f" text-anchor="end" fill="#4a5568">%s</text>`+"\n", plotX-6, ty+4, tickLabel(fy))
	}
	fmt.Fprintf(&b, `<text x="%.0f" y="%.0f" text-anchor="middle">%s</text>`+"\n", plotX+plotW/2, plotY+plotH+34, escape(xLabel))
	fmt.Fprintf(&b, `<text x="16" y="%.0f" text-anchor="middle" transform="rotate(-90 16 %.0f)">%s</text>`+"\n", plotY+plotH/2, plotY+plotH/2, escape(yLabel))

	// Step polyline through the Line points (in input order).
	var line []ScatterPoint
	for _, p := range pts {
		if p.Line {
			line = append(line, p)
		}
	}
	if len(line) > 1 {
		var poly strings.Builder
		for i, p := range line {
			if i > 0 {
				// Horizontal-then-vertical step: the cheaper
				// configuration's guarantee holds until the next
				// frontier point's cost.
				fmt.Fprintf(&poly, "%.1f,%.1f ", sx(p.X), sy(line[i-1].Y))
			}
			fmt.Fprintf(&poly, "%.1f,%.1f ", sx(p.X), sy(p.Y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#2b6cb0" stroke-width="1.5"/>`+"\n",
			strings.TrimRight(poly.String(), " "))
	}
	for _, p := range pts {
		if p.Highlight {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="5" fill="#c53030" stroke="#742a2a"/>`+"\n", sx(p.X), sy(p.Y))
		} else {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="none" stroke="#2b6cb0"/>`+"\n", sx(p.X), sy(p.Y))
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// dataRange pads the bounding box of pts so points never sit on the
// frame, degenerating gracefully for empty or single-value data.
func dataRange(pts []ScatterPoint) (minX, maxX, minY, maxY float64) {
	if len(pts) == 0 {
		return 0, 1, 0, 1
	}
	minX, maxX = pts[0].X, pts[0].X
	minY, maxY = pts[0].Y, pts[0].Y
	for _, p := range pts[1:] {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	padX, padY := (maxX-minX)*0.05, (maxY-minY)*0.05
	if padX <= 0 {
		padX = 1
	}
	if padY <= 0 {
		padY = 0.05
	}
	return minX - padX, maxX + padX, minY - padY, maxY + padY
}

// tickLabel formats an axis value compactly: integers without decimals,
// everything else with three.
func tickLabel(v float64) string {
	if v >= 1000 || v <= -1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
