package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lexicon"
)

// Point is one figure data point.
type Point struct {
	X, Y float64
}

// Series is one named line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproducible plot.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	Series []Series
}

// CSV renders the figure's data as comma-separated values.
func (f *Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("series,x,y\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	return sb.String()
}

// ASCII renders the figure as a terminal plot.
func (f *Figure) ASCII(w, h int) string {
	if w < 20 {
		w = 20
	}
	if h < 8 {
		h = 8
	}
	xform := func(x float64) float64 {
		if f.LogX {
			if x < 1 {
				x = 1
			}
			return math.Log10(x)
		}
		return x
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			x := xform(p.X)
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) || maxX == minX {
		return f.Title + "\n(no data)\n"
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	markers := []byte{'*', 'o', '+', 'x', '#'}
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			cx := int((xform(p.X) - minX) / (maxX - minX) * float64(w-1))
			cy := h - 1 - int((p.Y-minY)/(maxY-minY)*float64(h-1))
			if cx >= 0 && cx < w && cy >= 0 && cy < h {
				grid[cy][cx] = m
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(f.Title)
	sb.WriteByte('\n')
	for si, s := range f.Series {
		fmt.Fprintf(&sb, "  %c = %s\n", markers[si%len(markers)], s.Name)
	}
	fmt.Fprintf(&sb, "%8.3g ^\n", maxY)
	for _, row := range grid {
		sb.WriteString("         |")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%8.3g +%s\n", minY, strings.Repeat("-", w))
	xl, xr := minX, maxX
	if f.LogX {
		fmt.Fprintf(&sb, "          10^%.1f%s10^%.1f  (%s, log scale)\n",
			xl, strings.Repeat(" ", maxInt(1, w-14)), xr, f.XLabel)
	} else {
		fmt.Fprintf(&sb, "          %.3g%s%.3g  (%s)\n",
			xl, strings.Repeat(" ", maxInt(1, w-12)), xr, f.XLabel)
	}
	fmt.Fprintf(&sb, "          y: %s\n", f.YLabel)
	return sb.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Figure1 reproduces the cumulative distribution of inverted-list record
// sizes for the Legal collection, in terms of both total number of
// records and total file size.
func (l *Lab) Figure1() (*Figure, error) {
	b, err := l.Collection("Legal")
	if err != nil {
		return nil, err
	}
	eng, err := core.Open(b.FS, "Legal", core.BackendBTree, core.WithAnalyzer(analyzer()))
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	var sizes []int
	eng.Dictionary().Range(func(e *lexicon.Entry) bool {
		sizes = append(sizes, int(e.ListBytes))
		return true
	})
	sort.Ints(sizes)
	var totalBytes float64
	for _, s := range sizes {
		totalBytes += float64(s)
	}
	n := float64(len(sizes))

	// Log-spaced thresholds from 1 byte to the maximum size.
	maxSize := float64(sizes[len(sizes)-1])
	var recPts, bytePts []Point
	cumBytes := 0.0
	i := 0
	for _, thr := range logSpace(1, maxSize, 48) {
		for i < len(sizes) && float64(sizes[i]) <= thr {
			cumBytes += float64(sizes[i])
			i++
		}
		recPts = append(recPts, Point{X: thr, Y: 100 * float64(i) / n})
		bytePts = append(bytePts, Point{X: thr, Y: 100 * cumBytes / totalBytes})
	}
	return &Figure{
		Title:  "Figure 1: Cumulative distribution of inverted list sizes (Legal)",
		XLabel: "Inverted List Record Size (bytes)",
		YLabel: "Cumulative %",
		LogX:   true,
		Series: []Series{
			{Name: "% of Records", Points: recPts},
			{Name: "% of File Size", Points: bytePts},
		},
	}, nil
}

// logSpace returns n log-spaced values in [lo, hi].
func logSpace(lo, hi float64, n int) []float64 {
	if hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, llo+(lhi-llo)*float64(i)/float64(n-1))
	}
	// Pin the endpoints: pow(10, log10(hi)) can round just below hi,
	// which would drop the largest sample from a cumulative curve.
	out[0], out[n-1] = lo, hi
	return out
}

// Figure2 reproduces the frequency of use of terms with different
// inverted-list sizes for Legal Query Set 2: how many times records of
// each size bucket were fetched during query processing.
func (l *Lab) Figure2() (*Figure, error) {
	r, err := l.Run("Legal", 1, SysMnemeCache)
	if err != nil {
		return nil, err
	}
	// Bucket by powers of two, reporting the bucket's geometric centre.
	buckets := make(map[int]int)
	for _, s := range r.AccessSizes {
		if s == 0 {
			s = 1
		}
		buckets[int(math.Log2(float64(s)))]++
	}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pts := make([]Point, 0, len(keys))
	for _, k := range keys {
		centre := math.Pow(2, float64(k)+0.5)
		pts = append(pts, Point{X: centre, Y: float64(buckets[k])})
	}
	return &Figure{
		Title:  "Figure 2: Frequency of use of inverted list record sizes (Legal Query Set 2)",
		XLabel: "Inverted List Record Size (bytes)",
		YLabel: "Number of Uses",
		LogX:   true,
		Series: []Series{{Name: "uses", Points: pts}},
	}, nil
}

// Figure3 reproduces the large-object buffer hit-rate sweep for TIPSTER
// Query Set 1 over a range of buffer sizes.
func (l *Lab) Figure3() (*Figure, error) {
	b, err := l.Collection("TIPSTER")
	if err != nil {
		return nil, err
	}
	base := PlanFor(b)
	queries := b.Col.GenQueries(b.Col.QuerySets[0])

	var pts []Point
	// Sweep from a fraction of one large list to several times the
	// Table 2 heuristic.
	for _, mult := range []float64{0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24} {
		size := int64(float64(b.MaxList) * mult)
		plan := base
		plan.LargeBytes = size
		eng, err := core.Open(b.FS, "TIPSTER", core.BackendMneme,
			core.WithAnalyzer(analyzer()), core.WithPlan(plan))
		if err != nil {
			return nil, err
		}
		b.FS.Chill()
		eng.Backend().ResetBufferStats()
		for _, q := range queries {
			if _, err := eng.Run(nil, core.Request{Query: q.Text}); err != nil {
				eng.Close()
				return nil, err
			}
		}
		rate := eng.Backend().BufferStats()["large"].HitRate()
		eng.Close()
		pts = append(pts, Point{X: float64(size) / 1e6, Y: rate})
	}
	return &Figure{
		Title:  "Figure 3: Large object buffer hit rates for TIPSTER Query Set 1 over buffer sizes",
		XLabel: "Buffer Size (millions of bytes)",
		YLabel: "Hit Rate",
		Series: []Series{{Name: "hit rate", Points: pts}},
	}, nil
}

// AllFigures regenerates Figures 1-3 in order.
func (l *Lab) AllFigures() ([]*Figure, error) {
	var out []*Figure
	for _, fn := range []func() (*Figure, error){l.Figure1, l.Figure2, l.Figure3} {
		f, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
