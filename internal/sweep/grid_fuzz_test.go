package sweep

import "testing"

// fuzzMaxPoints bounds the cross products the fuzzer plans: a short
// input can name a grid of millions of points, and building every config
// proves nothing a smaller grid does not.
const fuzzMaxPoints = 4096

// FuzzParseGrid feeds arbitrary -grid strings to the parser and every
// grid it accepts to the planner. Neither may panic; an accepted grid
// must come back as well-formed axes, and the planner must either build
// one point per cell of the cross product or return an error.
func FuzzParseGrid(f *testing.F) {
	for _, s := range []string{
		"bid=1.5,2, 3;tau= 1,30",
		"",
		"bid",
		"warp=1,2",
		"bid=1,2;bid=3",
		"bid=one,two",
		"bid=,,",
		"=1,2",
		"bid=2;lambda=x,1",
		"bid=2,3,4,6;tau=3,30",
		"tau=1,3,10,30",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		axes, err := ParseGrid(s)
		if err != nil {
			return
		}
		points := 1
		for _, ax := range axes {
			if !knownKnob(ax.Knob) || len(ax.Values) == 0 {
				t.Fatalf("ParseGrid(%q) accepted axis %+v", s, ax)
			}
			points *= len(ax.Values)
			if points > fuzzMaxPoints {
				return
			}
		}
		plan, err := NewPlan(axes, testHome, 0)
		if err != nil {
			return
		}
		if len(plan.Points) != points {
			t.Fatalf("NewPlan(%q) built %d points, want %d", s, len(plan.Points), points)
		}
	})
}
