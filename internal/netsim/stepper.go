package netsim

import (
	"fmt"

	"repro/internal/graph"
)

// Stepper advances a token run one activation at a time: Run is a Stepper
// driven to the end, and the route driver runs its reference rounds in hop
// segments on one.
type Stepper struct {
	e       *Engine
	at      graph.NodeID
	inPort  int
	header  Header
	maxHops int64
	res     *Result
	done    bool
	err     error
}

// Stepper returns a manual-advance run. Semantics match Run: the first
// Step performs the first handler activation.
func (e *Engine) Stepper(start graph.NodeID, startPort int, h Header, maxHops int64) (*Stepper, error) {
	if !e.g.HasNode(start) {
		return nil, fmt.Errorf("%w: %d", graph.ErrNodeNotFound, start)
	}
	return &Stepper{
		e:       e,
		at:      start,
		inPort:  startPort,
		header:  h,
		maxHops: maxHops,
		res:     &Result{Final: start},
	}, nil
}

// Done reports whether the run has terminated.
func (s *Stepper) Done() bool { return s.done }

// Header returns the message header as it stands right now — the complete
// routing state of the in-flight run. Callers that migrate a run onto a new
// topology snapshot (the dynamic subsystem) carry this header into a fresh
// Stepper; nothing else needs to survive the migration, which is the
// paper's statelessness made operational.
func (s *Stepper) Header() Header { return s.header }

// At returns the current position: the node holding the message and the
// port it arrived on.
func (s *Stepper) At() (graph.NodeID, int) { return s.at, s.inPort }

// Result returns the result so far (final once Done).
func (s *Stepper) Result() *Result { return s.res }

// Err returns the terminal error, if any.
func (s *Stepper) Err() error { return s.err }

// Step performs one handler activation and, if the handler forwards the
// message, one hop. It returns true when the run has terminated (delivered,
// dropped, errored, or out of hop budget).
func (s *Stepper) Step() bool {
	if s.done {
		return true
	}
	e := s.e
	if bits := s.header.Bits(); bits > s.res.MaxHeaderBits {
		s.res.MaxHeaderBits = bits
	}
	if e.trace != nil {
		e.trace(s.res.Hops, s.at, s.inPort, s.header)
	}
	e.budget.Reset()
	dec, err := e.handler.OnMessage(s.at, s.inPort, e.g.Degree(s.at), &s.header, e.budget)
	if p := e.budget.Peak(); p > s.res.PeakMemoryBits {
		s.res.PeakMemoryBits = p
	}
	if err != nil {
		s.fail(fmt.Errorf("netsim: handler at %d: %w", s.at, err))
		return true
	}
	switch dec.Kind {
	case Deliver:
		s.res.Final, s.res.Delivered, s.res.Header = s.at, true, s.header
		s.done = true
	case Drop:
		s.res.Final, s.res.Header = s.at, s.header
		s.done = true
	case Send:
		half, err := e.g.Neighbor(s.at, dec.OutPort)
		if err != nil {
			s.fail(fmt.Errorf("netsim: send from %d: %w", s.at, err))
			return true
		}
		if e.fault != nil && e.fault(s.res.Hops) {
			s.fail(fmt.Errorf("%w: at hop %d from node %d", ErrMessageLost, s.res.Hops, s.at))
			return true
		}
		if e.wire {
			decoded, err := DecodeHeader(s.header.Encode())
			if err != nil {
				s.fail(fmt.Errorf("netsim: wire round trip at %d: %w", s.at, err))
				return true
			}
			s.header = decoded
		}
		s.at, s.inPort = half.To, half.ToPort
		s.res.Hops++
		if s.maxHops > 0 && s.res.Hops > s.maxHops {
			s.fail(fmt.Errorf("%w: %d hops", ErrHopBudget, s.maxHops))
		}
	default:
		s.fail(ErrNoDecision)
	}
	return s.done
}

func (s *Stepper) fail(err error) {
	s.err = err
	s.res.Final, s.res.Header = s.at, s.header
	s.done = true
}
