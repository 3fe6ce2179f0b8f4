package memory

// Span attributes steps, RMRs and the set of distinct base objects touched
// to a labelled region of a process's execution — typically one t-operation
// (e.g. "read#7" or "tryC"). Theorem 3(2) is stated in terms of the number
// of distinct base objects accessed during the last t-read and tryCommit,
// which is exactly len(span.Objects).
type Span struct {
	Label      string
	Steps      uint64
	Nontrivial uint64
	RMRs       uint64
	objs       map[uint64]struct{}
}

func (sp *Span) touch(o *Obj) {
	if sp.objs == nil {
		sp.objs = make(map[uint64]struct{})
	}
	sp.objs[o.id] = struct{}{}
}

// DistinctObjects reports how many distinct base objects were accessed
// during the span.
func (sp *Span) DistinctObjects() int { return len(sp.objs) }

// Touched reports whether the span accessed the given object.
func (sp *Span) Touched(o *Obj) bool {
	_, ok := sp.objs[o.id]
	return ok
}

// BeginSpan starts attributing the process's accesses to a new span,
// returning it. Spans do not nest; beginning a span ends the previous one.
func (p *Proc) BeginSpan(label string) *Span {
	sp := &Span{Label: label}
	p.span = sp
	return sp
}

// EndSpan stops span attribution and returns the finished span (nil if none
// was active).
func (p *Proc) EndSpan() *Span {
	sp := p.span
	p.span = nil
	return sp
}
