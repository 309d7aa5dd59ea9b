package netsim

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHeaderRoundTrip(t *testing.T) {
	tests := []Header{
		{},
		{Src: 1, Dst: 2, Dir: Forward, Status: StatusNone, Index: 1},
		{Src: 1 << 40, Dst: -5, Dir: Backward, Status: StatusFailure, Index: 1 << 50},
		{Src: 0, Dst: 0, Dir: Forward, Status: StatusSuccess, Index: 0},
	}
	for _, h := range tests {
		got, err := DecodeHeader(h.Encode())
		if err != nil {
			t.Fatalf("decode(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(src, dst, idx int64, dir uint8, st uint8) bool {
		h := Header{
			Src:    graph.NodeID(src),
			Dst:    graph.NodeID(dst),
			Dir:    Direction(dir%2 + 1),
			Status: Status(st % 3),
			Index:  idx,
		}
		got, err := DecodeHeader(h.Encode())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	good := Header{Src: 5, Dst: 9, Dir: Forward, Index: 3}.Encode()
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeHeader(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestHeaderBitsGrowLogarithmically(t *testing.T) {
	// Bits must grow with the magnitude of the IDs/index, but slowly:
	// doubling n adds O(1) bits.
	small := Header{Src: 3, Dst: 5, Dir: Forward, Index: 10}.Bits()
	big := Header{Src: 1 << 30, Dst: 1 << 30, Dir: Forward, Index: 1 << 40}.Bits()
	if big <= small {
		t.Fatalf("bits did not grow: %d vs %d", big, small)
	}
	if big > 8*(2*10+1+10) {
		t.Fatalf("header suspiciously large: %d bits", big)
	}
}

func TestDirectionStatusStrings(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "back" {
		t.Fatal("direction strings do not match the paper")
	}
	if StatusSuccess.String() != "success" || StatusFailure.String() != "failure" ||
		StatusNone.String() != "none" {
		t.Fatal("status strings wrong")
	}
	if Direction(9).String() == "" || Status(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

func TestMemoryMeter(t *testing.T) {
	m := NewMemory(100)
	if err := m.Charge(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(39); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(2); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("over budget error = %v", err)
	}
	if m.Peak() != 101 {
		t.Fatalf("peak = %d, want 101", m.Peak())
	}
	m.Release(50)
	if err := m.Charge(30); err != nil {
		t.Fatalf("after release: %v", err)
	}
	m.Reset()
	if err := m.Charge(100); err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if m.Budget() != 100 {
		t.Fatalf("budget = %d", m.Budget())
	}
}

func TestMemoryUnlimited(t *testing.T) {
	m := NewMemory(0)
	if err := m.Charge(1 << 30); err != nil {
		t.Fatalf("unlimited meter errored: %v", err)
	}
}

func TestMemoryReleaseFloor(t *testing.T) {
	m := NewMemory(10)
	m.Release(100)
	if err := m.Charge(10); err != nil {
		t.Fatalf("negative usage leaked: %v", err)
	}
}

// hopCountHandler walks a fixed number of steps through port 0/1 and then
// delivers: a minimal protocol for engine testing.
type hopCountHandler struct {
	stopAt int64
}

func (hh *hopCountHandler) OnMessage(self graph.NodeID, inPort, degree int, h *Header, mem *Memory) (Decision, error) {
	if err := mem.Charge(128); err != nil {
		return Decision{}, err
	}
	if h.Index >= hh.stopAt {
		return Decision{Kind: Deliver}, nil
	}
	h.Index++
	// Leave through the port after the arrival port (mod degree) — walks
	// around cycles forever.
	return Decision{Kind: Send, OutPort: (inPort + 1) % degree}, nil
}

func TestEngineRunDelivers(t *testing.T) {
	g := gen.Cycle(6)
	e := NewEngine(g, &hopCountHandler{stopAt: 10})
	res, err := e.Run(0, 0, Header{Src: 0, Dir: Forward}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("not delivered")
	}
	if res.Hops != 10 {
		t.Fatalf("hops = %d, want 10", res.Hops)
	}
	if res.MaxHeaderBits <= 0 {
		t.Fatal("header bits not measured")
	}
}

func TestEngineHopBudget(t *testing.T) {
	g := gen.Cycle(6)
	e := NewEngine(g, &hopCountHandler{stopAt: 1 << 40})
	_, err := e.Run(0, 0, Header{}, 25)
	if !errors.Is(err, ErrHopBudget) {
		t.Fatalf("error = %v, want ErrHopBudget", err)
	}
}

func TestEngineMemoryBudgetEnforced(t *testing.T) {
	g := gen.Cycle(6)
	e := NewEngine(g, &hopCountHandler{stopAt: 10}, WithMemoryBudget(64))
	_, err := e.Run(0, 0, Header{}, 100)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("error = %v, want ErrMemoryExceeded", err)
	}
}

func TestEngineMissingStart(t *testing.T) {
	g := gen.Cycle(3)
	e := NewEngine(g, &hopCountHandler{stopAt: 1})
	if _, err := e.Run(99, 0, Header{}, 10); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestEngineTrace(t *testing.T) {
	g := gen.Cycle(5)
	var visits []graph.NodeID
	e := NewEngine(g, &hopCountHandler{stopAt: 4}, WithTrace(
		func(hop int64, at graph.NodeID, inPort int, h Header) {
			visits = append(visits, at)
		}))
	if _, err := e.Run(0, 0, Header{}, 50); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 5 { // start + 4 hops
		t.Fatalf("trace saw %d activations, want 5", len(visits))
	}
	if visits[0] != 0 {
		t.Fatalf("first activation at %d, want 0", visits[0])
	}
}

// dropHandler drops immediately.
type dropHandler struct{}

func (dropHandler) OnMessage(graph.NodeID, int, int, *Header, *Memory) (Decision, error) {
	return Decision{Kind: Drop}, nil
}

func TestEngineDrop(t *testing.T) {
	e := NewEngine(gen.Cycle(3), dropHandler{})
	res, err := e.Run(1, 0, Header{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Final != 1 || res.Hops != 0 {
		t.Fatalf("drop result = %+v", res)
	}
}

// badHandler returns a zero Decision.
type badHandler struct{}

func (badHandler) OnMessage(graph.NodeID, int, int, *Header, *Memory) (Decision, error) {
	return Decision{}, nil
}

func TestEngineNoDecision(t *testing.T) {
	e := NewEngine(gen.Cycle(3), badHandler{})
	if _, err := e.Run(0, 0, Header{}, 10); !errors.Is(err, ErrNoDecision) {
		t.Fatalf("error = %v, want ErrNoDecision", err)
	}
}

func TestEngineBadPort(t *testing.T) {
	// Handler sends through a port that does not exist.
	h := &portHandler{port: 99}
	e := NewEngine(gen.Cycle(3), h)
	if _, err := e.Run(0, 0, Header{}, 10); !errors.Is(err, graph.ErrPortRange) {
		t.Fatalf("error = %v, want ErrPortRange", err)
	}
}

type portHandler struct{ port int }

func (p *portHandler) OnMessage(graph.NodeID, int, int, *Header, *Memory) (Decision, error) {
	return Decision{Kind: Send, OutPort: p.port}, nil
}
