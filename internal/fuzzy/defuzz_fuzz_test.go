package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// fuzzDefuzzResolutions are the sample counts the table path is checked
// at: the minimum, a tiny odd grid, the default, the stack buffer's edge
// on both sides, and a fine grid.
var fuzzDefuzzResolutions = []int{2, 3, 201, sampleStack, sampleStack + 1, 1001}

// fuzzDefuzzOutput is an output variable whose terms exercise every shape
// of a table row: shoulders reaching the universe edges, a triangle
// narrower than a coarse sample step, a Gaussian nonzero everywhere (it
// also keeps every resolution covered), and a singleton on the edge.
func fuzzDefuzzOutput() *Variable {
	return MustVariable("y", -1, 3,
		Term{Name: "ls", MF: MustLeftShoulder(-0.5, 0.75)},
		Term{Name: "narrow", MF: MustTriangular(0.3, 0.01, 0.01)},
		Term{Name: "gauss", MF: MustGaussian(1, 0.4)},
		Term{Name: "tri", MF: MustTriangular(1.7, 0.9, 0.3)},
		Term{Name: "rs", MF: MustRightShoulder(2.5, 0.5)},
		Term{Name: "pin", MF: Singleton{Point: 3}},
	)
}

// refSampledDefuzz is the integral defuzzifiers' sampling loop as it was
// before the output-term table: each sample point evaluates agg.At.
func refSampledDefuzz(method int, agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	if resolution < 2 {
		resolution = 2
	}
	min, max := agg.Variable().Universe()
	step := (max - min) / float64(resolution-1)
	switch method {
	case 0: // centroid
		var num, den float64
		for i := 0; i < resolution; i++ {
			y := min + float64(i)*step
			m := agg.At(y)
			num += y * m
			den += m
		}
		if den == 0 {
			return 0, fmt.Errorf("fuzzy: centroid is undefined: aggregated area is zero at resolution %d", resolution)
		}
		return num / den, nil
	case 1: // bisector
		samples := make([]float64, resolution)
		var total float64
		for i := range samples {
			samples[i] = agg.At(min + float64(i)*step)
			total += samples[i]
		}
		if total == 0 {
			return 0, fmt.Errorf("fuzzy: bisector is undefined: aggregated area is zero at resolution %d", resolution)
		}
		var acc float64
		for i, m := range samples {
			acc += m
			if acc >= total/2 {
				return min + float64(i)*step, nil
			}
		}
		return max, nil
	default: // mean of maxima
		const eps = 1e-12
		var best, sum float64
		var count int
		for i := 0; i < resolution; i++ {
			y := min + float64(i)*step
			m := agg.At(y)
			switch {
			case m > best+eps:
				best, sum, count = m, y, 1
			case m >= best-eps && m > 0:
				sum += y
				count++
			}
		}
		if count == 0 {
			return 0, fmt.Errorf("fuzzy: mean-of-maxima is undefined: aggregated set is empty at resolution %d", resolution)
		}
		return sum / float64(count), nil
	}
}

// unitStrength folds an arbitrary float into a finite strength in [0, 1],
// keeping values already in range (0 and 1 included) unchanged.
func unitStrength(s float64) float64 {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	s = math.Abs(s)
	if s > 1 {
		s -= math.Floor(s)
	}
	return s
}

// FuzzSampledDefuzzMatchesAt is the oracle for the table-driven integral
// defuzzifiers: for any firing strengths, either implication, every
// integral method and resolutions around the stack buffer's edge, the
// engine's sampled path returns the same bits and the same error as the
// point-by-point At loop it replaced. The checked-in corpus under
// testdata/fuzz replays as part of the normal test suite.
func FuzzSampledDefuzzMatchesAt(f *testing.F) {
	out := fuzzDefuzzOutput()
	in := MustVariable("x", 0, 1, Term{Name: "any", MF: MustTrapezoidal(0, 1, 0, 0)})
	rules := []Rule{{If: []Clause{{Var: "x", Term: "any"}}, Then: Clause{Var: "y", Term: "gauss"}}}
	engines := make([]*Engine, len(fuzzDefuzzResolutions))
	for i, n := range fuzzDefuzzResolutions {
		engines[i] = MustEngine([]*Variable{in}, out, rules, WithResolution(n))
	}
	methods := []Defuzzifier{Centroid{}, Bisector{}, MeanOfMaxima{}}

	f.Fuzz(func(t *testing.T, s0, s1, s2, s3, s4, s5 float64, scale bool, resSel, methodSel uint8) {
		ri := int(resSel) % len(engines)
		e, resolution := engines[ri], fuzzDefuzzResolutions[ri]
		mi := int(methodSel) % len(methods)
		im := ImplicationClip
		if scale {
			im = ImplicationScale
		}
		strengths := []float64{unitStrength(s0), unitStrength(s1), unitStrength(s2), unitStrength(s3), unitStrength(s4), unitStrength(s5)}
		agg := &AggregatedOutput{out: out, strengths: strengths, implication: im, table: e.samples}
		if agg.table == nil || agg.table.resolution != resolution {
			t.Fatalf("engine at resolution %d carries no matching sample table", resolution)
		}
		want, wantErr := refSampledDefuzz(mi, agg, resolution)
		atOnly := *agg
		atOnly.table = nil
		for _, path := range []struct {
			name string
			agg  *AggregatedOutput
		}{{"table", agg}, {"At fallback", &atOnly}} {
			got, err := methods[mi].Defuzzify(path.agg, resolution)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s at resolution %d, %v, strengths %v: got %v (%#x), want %v (%#x)",
					methods[mi].Name(), path.name, resolution, im, strengths, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || errors.Is(err, ErrNoRuleFired) != errors.Is(wantErr, ErrNoRuleFired) {
				t.Fatalf("%s %s at resolution %d, %v, strengths %v: error %v, want %v",
					methods[mi].Name(), path.name, resolution, im, strengths, err, wantErr)
			}
		}
	})
}
