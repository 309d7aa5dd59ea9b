package exp

import "fmt"

// Runner is a named experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) (*Table, error)
}

// Runners is the experiment index: the figure (F1), the evaluations
// (E1–E11), then the ablations (A1–A5).
func Runners() []Runner {
	return []Runner{
		{ID: "F1", Name: "degree reduction", Run: F1DegreeReduction},
		{ID: "E1", Name: "delivery 2D", Run: E1Delivery2D},
		{ID: "E2", Name: "delivery 3D", Run: E2Delivery3D},
		{ID: "E3", Name: "hops vs n", Run: E3HopsVsN},
		{ID: "E4", Name: "cover time", Run: E4CoverTime},
		{ID: "E5", Name: "failure detection", Run: E5FailureDetect},
		{ID: "E6", Name: "count nodes", Run: E6CountNodes},
		{ID: "E7", Name: "space overhead", Run: E7SpaceOverhead},
		{ID: "E8", Name: "zig-zag transform", Run: E8ZigZag},
		{ID: "E9", Name: "hybrid", Run: E9Hybrid},
		{ID: "E10", Name: "static assumption stress", Run: E10StaticAssumption},
		{ID: "E11", Name: "dynamic networks", Run: E11DynamicNetworks},
		{ID: "A1", Name: "confirm mode ablation", Run: A1ConfirmMode},
		{ID: "A2", Name: "growth factor ablation", Run: A2GrowthFactor},
		{ID: "A3", Name: "length factor ablation", Run: A3LengthFactor},
		{ID: "A4", Name: "degree reduction ablation", Run: A4DegreeReduction},
		{ID: "A5", Name: "adversarial labeling ablation", Run: A5AdversarialLabeling},
	}
}

// ByID returns the runner for an experiment ID.
func ByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// All runs every experiment and returns the tables in order.
func All(o Options) ([]*Table, error) {
	var out []*Table
	for _, r := range Runners() {
		tbl, err := r.Run(o)
		if err != nil {
			return out, fmt.Errorf("exp: %s: %w", r.ID, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}
