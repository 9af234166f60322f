package fuzzy

import "fmt"

// TNorm selects how antecedent clause memberships are combined (fuzzy AND).
type TNorm int

// Supported t-norms.
const (
	// TNormMin is the Mamdani minimum t-norm (the paper's choice).
	TNormMin TNorm = iota + 1
	// TNormProduct is the algebraic product t-norm.
	TNormProduct
)

// String implements fmt.Stringer.
func (t TNorm) String() string {
	switch t {
	case TNormMin:
		return "min"
	case TNormProduct:
		return "product"
	default:
		return fmt.Sprintf("TNorm(%d)", int(t))
	}
}

// Apply combines two membership degrees.
func (t TNorm) Apply(a, b float64) float64 {
	switch t {
	case TNormProduct:
		return a * b
	default: // TNormMin
		if a < b {
			return a
		}
		return b
	}
}

// Implication selects how a rule's firing strength shapes its consequent
// fuzzy set during Mamdani inference.
type Implication int

// Supported implication operators.
const (
	// ImplicationClip truncates the consequent at the firing strength
	// (Mamdani min implication, the classical choice).
	ImplicationClip Implication = iota + 1
	// ImplicationScale multiplies the consequent by the firing strength
	// (Larsen product implication).
	ImplicationScale
)

// String implements fmt.Stringer.
func (im Implication) String() string {
	switch im {
	case ImplicationClip:
		return "clip"
	case ImplicationScale:
		return "scale"
	default:
		return fmt.Sprintf("Implication(%d)", int(im))
	}
}

// Apply shapes membership degree m by firing strength w.
func (im Implication) Apply(w, m float64) float64 {
	switch im {
	case ImplicationScale:
		return w * m
	default: // ImplicationClip
		if m < w {
			return m
		}
		return w
	}
}

// AggregatedOutput is the union (max-aggregation) of all shaped consequent
// sets for one evaluation. It is the function that the area-based
// defuzzifiers integrate.
type AggregatedOutput struct {
	out         *Variable
	strengths   []float64 // per output term, max across fired rules
	implication Implication
	table       *sampleTable // the engine's output-term samples; nil outside an engine
}

// Variable returns the output linguistic variable.
func (a *AggregatedOutput) Variable() *Variable { return a.out }

// Strength returns the aggregated firing strength of the i-th output term.
func (a *AggregatedOutput) Strength(i int) float64 { return a.strengths[i] }

// NumTerms returns the number of output terms.
func (a *AggregatedOutput) NumTerms() int { return len(a.strengths) }

// At evaluates the aggregated output membership at crisp point y.
func (a *AggregatedOutput) At(y float64) float64 {
	var best float64
	for i, w := range a.strengths {
		if w == 0 {
			continue
		}
		if m := a.implication.Apply(w, a.out.terms[i].MF.Membership(y)); m > best {
			best = m
		}
	}
	return best
}

// Empty reports whether no rule fired (all strengths are zero).
func (a *AggregatedOutput) Empty() bool {
	for _, w := range a.strengths {
		if w > 0 {
			return false
		}
	}
	return true
}

// sampleStack is the largest resolution whose aggregated samples the
// integral defuzzifiers keep on the stack; it covers the default 201.
const sampleStack = 256

// samplePoint returns the i-th integral-defuzzification sample point of a
// universe starting at min. The sample table and every defuzzifier compute
// their points through it, so both see the same floats on every GOARCH.
func samplePoint(min, step float64, i int) float64 { return min + float64(i)*step }

// termSamples is one output term's membership at the sample points
// [lo, lo+len(m)). Every sample outside that range is <= 0, which no
// implication of a positive strength lifts above the aggregation's +0.
type termSamples struct {
	lo int
	m  []float64
}

// sampleTable holds every output term's membership at the sample points
// of one resolution. It is built once per engine and never written after.
type sampleTable struct {
	resolution int
	terms      []termSamples
}

func newSampleTable(out *Variable, resolution int) *sampleTable {
	min, max := out.Universe()
	step := (max - min) / float64(resolution-1)
	t := &sampleTable{resolution: resolution, terms: make([]termSamples, len(out.terms))}
	row := make([]float64, resolution)
	for k, term := range out.terms {
		lo, hi := resolution, 0
		for i := range row {
			row[i] = term.MF.Membership(samplePoint(min, step, i))
			if !(row[i] <= 0) { // NaN counts: clip implication maps it to the strength
				if lo > i {
					lo = i
				}
				hi = i + 1
			}
		}
		if lo < hi {
			t.terms[k] = termSamples{lo: lo, m: append([]float64(nil), row[lo:hi]...)}
		}
	}
	return t
}

// sample returns the aggregated membership at each of resolution sample
// points, in buf when it has the capacity. With the engine's table at this
// resolution it max-folds each fired term over its nonzero samples only;
// otherwise it evaluates At point by point. Min, max and product are exact
// and a skipped sample can never beat the fold's +0 start, so both paths
// return the same bits.
func (a *AggregatedOutput) sample(buf []float64, resolution int) []float64 {
	var ms []float64
	if resolution <= cap(buf) {
		ms = buf[:resolution]
		clear(ms)
	} else {
		ms = make([]float64, resolution)
	}
	if t := a.table; t != nil && t.resolution == resolution {
		for k, w := range a.strengths {
			if w == 0 {
				continue
			}
			ts := t.terms[k]
			dst := ms[ts.lo : ts.lo+len(ts.m)]
			for i, m := range ts.m {
				if v := a.implication.Apply(w, m); v > dst[i] {
					dst[i] = v
				}
			}
		}
		return ms
	}
	min, max := a.out.Universe()
	step := (max - min) / float64(resolution-1)
	for i := range ms {
		ms[i] = a.At(samplePoint(min, step, i))
	}
	return ms
}
