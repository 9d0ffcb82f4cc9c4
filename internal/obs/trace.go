package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one timed region of a trace: a stage, a label (term, pool,
// or query text), the real wall-clock duration measured on the host,
// the events attributed directly to this span (exclusive of children),
// and the nested child spans.
type Span struct {
	Stage    Stage
	Label    string
	RealNS   int64 // inclusive of children
	Counts   Counts
	Children []*Span

	start time.Time
}

// TotalCounts returns the span's counts including all descendants.
func (s *Span) TotalCounts() Counts {
	total := s.Counts
	for _, c := range s.Children {
		cc := c.TotalCounts()
		total.Add(&cc)
	}
	return total
}

// SelfRealNS returns the span's real duration excluding child spans.
func (s *Span) SelfRealNS() int64 {
	ns := s.RealNS
	for _, c := range s.Children {
		ns -= c.RealNS
	}
	if ns < 0 {
		ns = 0
	}
	return ns
}

// Trace records one query's span tree. It implements Recorder and is
// not safe for concurrent use: attach it to at most one query stream
// (Engine.TraceRun serializes the attachment).
type Trace struct {
	root  *Span
	stack []*Span
}

// NewTrace starts a trace whose root span carries the given label
// (conventionally the query text).
func NewTrace(label string) *Trace {
	root := &Span{Stage: StageQuery, Label: label, start: time.Now()}
	t := &Trace{root: root}
	t.stack = append(t.stack, root)
	return t
}

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish closes the root span's timer. Idempotent in effect: a second
// call just refreshes the duration.
func (t *Trace) Finish() {
	t.root.RealNS = time.Since(t.root.start).Nanoseconds()
}

// BeginSpan implements Recorder.
func (t *Trace) BeginSpan(stage Stage, label string) {
	s := &Span{Stage: stage, Label: label, start: time.Now()}
	top := t.stack[len(t.stack)-1]
	top.Children = append(top.Children, s)
	t.stack = append(t.stack, s)
}

// EndSpan implements Recorder. The root span never pops; a surplus
// EndSpan is ignored rather than corrupting the tree.
func (t *Trace) EndSpan() {
	if len(t.stack) <= 1 {
		return
	}
	top := t.stack[len(t.stack)-1]
	top.RealNS = time.Since(top.start).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// Event implements Recorder: the count lands on the innermost open
// span. The label is used only by renderers; counts aggregate by kind.
func (t *Trace) Event(kind EventKind, label string, v int64) {
	t.stack[len(t.stack)-1].Counts[kind] += v
}

// StageTotal aggregates every span of one stage: how many spans ran,
// their real time exclusive of child spans, and their exclusive event
// counts (from which CostModel.SimNS derives the simulated time).
type StageTotal struct {
	Spans      int64
	SelfRealNS int64
	Counts     Counts
}

// StageTotals walks the tree and aggregates per-stage exclusive
// totals. Exclusive attribution means the stage sums partition the
// query: a disk read during a Mneme fault-in counts toward
// StageFaultIn, not the enclosing fetch or score span.
func (t *Trace) StageTotals() map[Stage]StageTotal {
	totals := make(map[Stage]StageTotal, int(numStages))
	var walk func(s *Span)
	walk = func(s *Span) {
		agg := totals[s.Stage]
		agg.Spans++
		agg.SelfRealNS += s.SelfRealNS()
		agg.Counts.Add(&s.Counts)
		totals[s.Stage] = agg
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(t.root)
	return totals
}

// SimNS returns the whole trace's simulated duration: the cost model
// applied to all counts, plus the per-query parse overhead.
func (t *Trace) SimNS(m CostModel) int64 {
	total := t.root.TotalCounts()
	return m.SimNS(&total) + m.QueryNS
}

// Render draws the span tree with real (host) and simulated (cost
// model) durations per span, plus a compact summary of each span's own
// events:
//
//	query "#and(censorship network)"        real 812µs  sim 64.6ms
//	└─ score taat                           real 790µs  sim 18.3ms  [postings 2033]
//	   ├─ score censorship                  real 402µs  sim 9.1ms
//	   │  ├─ lexicon censorship             real 1µs    sim 0s
//	   │  └─ fetch censorship               real 371µs  sim 9.3ms   [lookups 1]
//	   │     └─ fault_in large              real 344µs  sim 9.2ms   [disk_reads 1 ...]
//	   ...
func (t *Trace) Render(m CostModel) string {
	var b strings.Builder
	t.renderSpan(&b, t.root, "", "", m, true)
	return b.String()
}

func (t *Trace) renderSpan(b *strings.Builder, s *Span, prefix, childPrefix string, m CostModel, root bool) {
	label := s.Stage.String()
	if s.Label != "" {
		label += " " + quoteIfSpaced(s.Label)
	}
	counts := s.Counts
	sim := m.SimNS(&counts)
	if root {
		total := s.TotalCounts()
		sim = m.SimNS(&total) + m.QueryNS
	} else {
		// Inclusive simulated time mirrors inclusive real time.
		total := s.TotalCounts()
		sim = m.SimNS(&total)
	}
	fmt.Fprintf(b, "%s%-44s real %-9s sim %-9s%s\n",
		prefix, label,
		time.Duration(s.RealNS).Round(time.Microsecond),
		time.Duration(sim).Round(time.Microsecond),
		eventSummary(&s.Counts))
	for i, c := range s.Children {
		last := i == len(s.Children)-1
		connector, nextPrefix := "├─ ", "│  "
		if last {
			connector, nextPrefix = "└─ ", "   "
		}
		t.renderSpan(b, c, childPrefix+connector, childPrefix+nextPrefix, m, false)
	}
}

// quoteIfSpaced quotes labels containing spaces (query text) so the
// tree stays parseable by eye.
func quoteIfSpaced(s string) string {
	if strings.ContainsAny(s, " \t") {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// eventSummary formats a span's own non-zero event counts.
func eventSummary(c *Counts) string {
	if c.IsZero() {
		return ""
	}
	var parts []string
	for k := EventKind(0); k < NumEvents; k++ {
		if c[k] != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", k, c[k]))
		}
	}
	return "  [" + strings.Join(parts, ", ") + "]"
}
