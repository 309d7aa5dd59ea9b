package dynamic

import (
	"errors"
	"fmt"
)

// Spec is a declarative schedule description, the wire/flag form used by
// the adhocd /v1/dynamic endpoint and the churnsim driver. Exactly the
// fields relevant to Kind are consulted.
type Spec struct {
	// Kind selects the schedule: "static", "churn" (Bernoulli edge
	// churn), "markov" (on/off links over the deployed underlay),
	// "waypoint" (random-waypoint mobility), or "adversary" (the
	// next-link cutter).
	Kind string `json:"kind"`
	// Seed drives the schedule's randomness.
	Seed uint64 `json:"seed,omitempty"`
	// PDrop is the per-edge removal probability (churn) per epoch.
	PDrop float64 `json:"p_drop,omitempty"`
	// AddRate is the expected fresh edges per epoch (churn), at most
	// 1024.
	AddRate float64 `json:"add_rate,omitempty"`
	// PDown and PUp are the Markov link transition probabilities.
	PDown float64 `json:"p_down,omitempty"`
	PUp   float64 `json:"p_up,omitempty"`
	// SpeedMin and SpeedMax bound waypoint travel per epoch.
	SpeedMin float64 `json:"speed_min,omitempty"`
	SpeedMax float64 `json:"speed_max,omitempty"`
	// Radius is the waypoint model's unit-disk connectivity radius.
	Radius float64 `json:"radius,omitempty"`
	// Gabriel planarizes the waypoint model's per-epoch topology.
	Gabriel bool `json:"gabriel,omitempty"`
}

// Errors reported by Build.
var (
	// ErrUnknownKind reports an unrecognized schedule kind.
	ErrUnknownKind = errors.New("dynamic: unknown schedule kind")
	// ErrSpecRange reports a probability outside [0, 1] or an add rate
	// outside [0, 1024].
	ErrSpecRange = errors.New("dynamic: schedule parameter out of range")
)

// maxAddRate caps Spec.AddRate. An epoch makes AddRate insertion attempts
// while it holds its world, so the cap bounds how long any spec a client
// sends can stall a walk or an advance; every schedule in use adds at most
// a few edges per epoch.
const maxAddRate = 1024

// Build instantiates the described schedule. It rejects parameters outside
// their range with ErrSpecRange.
func (s Spec) Build() (Schedule, error) {
	switch s.Kind {
	case "", "static":
		return Static{}, nil
	case "churn":
		if err := errors.Join(inRange("p_drop", s.PDrop, 1), inRange("add_rate", s.AddRate, maxAddRate)); err != nil {
			return nil, err
		}
		return &EdgeChurn{Seed: s.Seed, PDrop: s.PDrop, AddRate: s.AddRate}, nil
	case "markov":
		if err := errors.Join(inRange("p_down", s.PDown, 1), inRange("p_up", s.PUp, 1)); err != nil {
			return nil, err
		}
		return &MarkovLinks{Seed: s.Seed, PDown: s.PDown, PUp: s.PUp}, nil
	case "waypoint":
		if s.Radius <= 0 {
			return nil, ErrNoRadius
		}
		return &RandomWaypoint{
			Seed: s.Seed, SpeedMin: s.SpeedMin, SpeedMax: s.SpeedMax,
			Radius: s.Radius, Gabriel: s.Gabriel,
		}, nil
	case "adversary":
		return &LinkCutter{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, s.Kind)
	}
}

// Replays reports whether the schedule's epochs depend on nothing but the
// world they evolve and the epoch count, so that a fresh world on the same
// network, advanced as many epochs with idle probes, reaches the same
// topology under the same port numbering. Every kind replays except
// "adversary": LinkCutter cuts the link the walk in flight is about to
// take, so its topology follows the walks.
func (s Spec) Replays() bool { return s.Kind != "adversary" }

// inRange reports an ErrSpecRange error unless the field's value v lies in
// [0, hi].
func inRange(field string, v, hi float64) error {
	if v >= 0 && v <= hi {
		return nil
	}
	return fmt.Errorf("%w: %s %v outside [0, %v]", ErrSpecRange, field, v, hi)
}
