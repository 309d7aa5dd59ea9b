package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	h := Traceparent(tid, sid, FlagSampled)
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	gtid, gsid, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gtid != tid || gsid != sid || flags != FlagSampled {
		t.Fatalf("round trip mismatch: got %v %v %#x", gtid, gsid, flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := map[string]string{
		"empty":          "",
		"short":          valid[:54],
		"v00 long":       valid + "x",
		"bad sep":        strings.Replace(valid, "-b7ad", "_b7ad", 1),
		"zero trace id":  "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero parent id": "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"version ff":     "ff" + valid[2:],
		"non-hex ver":    "zz" + valid[2:],
		"non-hex flags":  valid[:53] + "zz",
	}
	for name, s := range cases {
		if _, _, _, err := ParseTraceparent(s); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", name, s)
		}
	}
	// Forward compatibility: a higher version may append extra fields
	// after a dash; the first four fields still parse.
	future := "cc" + valid[2:] + "-extrastate"
	if _, _, fl, err := ParseTraceparent(future); err != nil || fl != FlagSampled {
		t.Errorf("future version: err=%v flags=%#x", err, fl)
	}
}

func TestIDGeneration(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace id generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %v", id)
		}
		seen[id] = true
	}
	if len(NewTraceID().String()) != 32 || len(NewSpanID().String()) != 16 {
		t.Fatal("hex lengths wrong")
	}
}

func TestSamplingDecision(t *testing.T) {
	// Rate 0: only an upstream sampled flag records.
	tr0 := New(Config{SampleRate: 0})
	if tr := tr0.StartRequest("r", ""); tr != nil {
		t.Fatal("rate 0 without parent sampled")
	}
	tid := NewTraceID()
	parent := Traceparent(tid, NewSpanID(), FlagSampled)
	tr := tr0.StartRequest("r", parent)
	if tr == nil {
		t.Fatal("upstream sampled flag ignored")
	}
	if tr.ID() != tid {
		t.Fatalf("trace id not propagated: got %v want %v", tr.ID(), tid)
	}
	if tr0.StartRequest("r", Traceparent(NewTraceID(), NewSpanID(), 0)) != nil {
		t.Fatal("unsampled parent recorded at rate 0")
	}

	// Rate 1: everything records.
	tr1 := New(Config{SampleRate: 1})
	if tr1.StartRequest("r", "") == nil {
		t.Fatal("rate 1 not sampled")
	}
	started, sampled := tr1.Stats()
	if started != 1 || sampled != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", started, sampled)
	}

	// An unsampled parent is authoritative at any rate: flag 00 means
	// the caller already declined, so even rate 1 must not record.
	if tr1.StartRequest("r", Traceparent(NewTraceID(), NewSpanID(), 0)) != nil {
		t.Fatal("unsampled parent recorded at rate 1")
	}

	// Fractional rate: local coin only for parentless requests.
	half := New(Config{SampleRate: 0.5})
	for i := 0; i < 5; i++ {
		if half.StartRequest("r", Traceparent(NewTraceID(), NewSpanID(), 0)) != nil {
			t.Fatal("unsampled parent recorded at rate 0.5")
		}
	}
	// And roughly calibrated.
	n, hits := 2000, 0
	for i := 0; i < n; i++ {
		if w := half.StartRequest("r", ""); w != nil {
			hits++
			w.Finish()
		}
	}
	if hits < n/3 || hits > 2*n/3 {
		t.Fatalf("rate 0.5 sampled %d/%d", hits, n)
	}
}

func TestRetentionPolicy(t *testing.T) {
	// SlowThreshold 0: every sampled trace retained.
	keepAll := New(Config{SampleRate: 1, Capacity: 8})
	keepAll.StartRequest("r", "").Finish()
	if got := keepAll.Recorder().Kept(); got != 1 {
		t.Fatalf("SlowThreshold 0: kept %d, want 1", got)
	}

	// Negative threshold: clean fast traces dropped; errors retained.
	sel := New(Config{SampleRate: 1, SlowThreshold: -1, Capacity: 8})
	sel.StartRequest("clean", "").Finish()
	if sel.Recorder().Kept() != 0 {
		t.Fatal("clean trace retained with retention disabled")
	}
	bad := sel.StartRequest("bad", "")
	bad.SetError("boom")
	bad.Finish()
	if got := sel.Recorder().Kept(); got != 1 {
		t.Fatalf("error: kept %d, want 1", got)
	}
	if sel.Recorder().Find(bad.ID()).Err() != "boom" {
		t.Fatal("error message lost")
	}

	// Positive threshold: only the slow trace survives.
	slow := New(Config{SampleRate: 1, SlowThreshold: 5 * time.Millisecond, Capacity: 8})
	slow.StartRequest("fast", "").Finish()
	w := slow.StartRequest("slow", "")
	time.Sleep(10 * time.Millisecond)
	w.Finish()
	if got := slow.Recorder().Kept(); got != 1 {
		t.Fatalf("latency trigger: kept %d, want 1", got)
	}
	if slow.Recorder().Recent(0)[0].Root() == nil {
		t.Fatal("retained trace lost its root")
	}
}

// tail returns a replay that emits the hops of a walk whose nodes number
// its hops, from hop total−1 down to first, as a walker's replay emits the
// last hops it made: newest first.
func tail(first, total int64) func(func(HopEvent)) {
	return func(hop func(HopEvent)) {
		for i := total - 1; i >= first; i-- {
			hop(HopEvent{Node: i, Index: i + 1, HeaderBits: 24})
		}
	}
}

func TestSpanTreeAndExport(t *testing.T) {
	tc := New(Config{SampleRate: 1, HopRing: 4})
	tr := tc.StartRequest("req", "")
	root := tr.Root()
	root.SetAttr(String("endpoint", "/v1/route"), Int("src", 3))
	walk := root.Child("walk")
	for i := 0; i < DefaultEventCap; i++ {
		walk.Event("round", Int("bound", int64(i)))
	}
	walk.Event("overflow") // beyond DefaultEventCap: dropped, counted
	walk.Tail(10, tail(6, 10))
	walk.End()
	tr.SetError("unreachable")
	tr.Finish()

	if tr.Traceparent() == "" || !strings.Contains(tr.Traceparent(), tr.ID().String()) {
		t.Fatalf("bad outgoing traceparent %q", tr.Traceparent())
	}

	ex := tc.Recorder().Find(tr.ID()).Export()
	if len(ex.Spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(ex.Spans))
	}
	if ex.Error != "unreachable" {
		t.Fatalf("export error %q", ex.Error)
	}
	rootEx, walkEx := ex.Spans[0], ex.Spans[1]
	if walkEx.Parent != rootEx.SpanID {
		t.Fatalf("child parent %q != root %q", walkEx.Parent, rootEx.SpanID)
	}
	if rootEx.Attrs["endpoint"] != "/v1/route" || rootEx.Attrs["src"] != int64(3) {
		t.Fatalf("root attrs %v", rootEx.Attrs)
	}
	if len(walkEx.Events) != DefaultEventCap || walkEx.EventsDropped != 1 {
		t.Fatalf("events %d dropped %d, want %d/1", len(walkEx.Events), walkEx.EventsDropped, DefaultEventCap)
	}
	// Tail capture: 10 hops through a ring of 4 keeps hops 6..9.
	if walkEx.HopTotal != 10 || walkEx.HopsDropped != 6 || len(walkEx.Hops) != 4 {
		t.Fatalf("hop tail: total=%d dropped=%d kept=%d", walkEx.HopTotal, walkEx.HopsDropped, len(walkEx.Hops))
	}
	for i, h := range walkEx.Hops {
		if h.Hop != int64(6+i) || h.Node != int64(6+i) {
			t.Fatalf("tail hop %d = %+v", i, h)
		}
	}

	sum := tc.Recorder().Find(tr.ID()).Summarize()
	if sum.Spans != 2 || sum.Hops != 10 || sum.Error != "unreachable" {
		t.Fatalf("summary %+v", sum)
	}
	if _, err := json.Marshal(ex); err != nil {
		t.Fatalf("export not marshalable: %v", err)
	}
}

// TestTail checks the hop tails a kept trace fills: every hop counts
// toward the total, the hops older than the ring are dropped, the kept ones
// carry their ordinals within the walk, and a span without hops — no Tail,
// or a walk of none — exports none.
func TestTail(t *testing.T) {
	tc := New(Config{SampleRate: 1, HopRing: 4})
	tr := tc.StartRequest("req", "")
	cases := []struct{ total, dropped int64 }{{103, 99}, {6, 2}, {4, 0}, {3, 0}, {0, 0}}
	spans := make([]*Span, len(cases))
	for i, c := range cases {
		spans[i] = tr.Root().Child("walk")
		spans[i].Tail(c.total, tail(c.dropped, c.total))
	}
	tr.Finish()
	for i, c := range cases {
		ex := spans[i].export()
		if ex.HopTotal != c.total || ex.HopsDropped != c.dropped || int64(len(ex.Hops)) != c.total-c.dropped {
			t.Fatalf("total %d: total=%d dropped=%d kept=%d", c.total, ex.HopTotal, ex.HopsDropped, len(ex.Hops))
		}
		if c.total == 0 && ex.Hops != nil {
			t.Fatalf("walk of no hops exported %+v", ex.Hops)
		}
		for j, h := range ex.Hops {
			if want := c.dropped + int64(j); h.Hop != want || h.Node != want {
				t.Fatalf("total %d: tail hop %d = %+v", c.total, j, h)
			}
		}
	}
	if ex := tr.Root().export(); ex.HopTotal != 0 || ex.HopsDropped != 0 || ex.Hops != nil {
		t.Fatalf("span without hops exported %+v", ex)
	}
	if tr.Root().HopRing() != 4 {
		t.Fatalf("HopRing %d, want 4", tr.Root().HopRing())
	}
}

// TestTailReplaysOnlyKeptTraces checks when a span's replay runs: never
// for a trace Finish drops, and once, after the trace's end time, for a
// kept one — so a replay never counts toward the latency that decides
// retention.
func TestTailReplaysOnlyKeptTraces(t *testing.T) {
	tc := New(Config{SampleRate: 1, SlowThreshold: -1, Capacity: 8})
	var calls int
	var at time.Time
	replay := func(hop func(HopEvent)) {
		calls++
		at = time.Now()
		tail(0, 3)(hop)
	}

	dropped := tc.StartRequest("clean", "")
	dropped.Root().Child("walk").Tail(3, replay)
	dropped.Finish()
	if calls != 0 || tc.Recorder().Kept() != 0 {
		t.Fatalf("dropped trace: %d replays, %d kept; want 0, 0", calls, tc.Recorder().Kept())
	}

	kept := tc.StartRequest("failed", "")
	walk := kept.Root().Child("walk")
	walk.Tail(3, replay)
	walk.End()
	if calls != 0 {
		t.Fatal("a span replayed its tail before its trace finished")
	}
	kept.SetError("boom")
	kept.Finish()
	kept.Finish()
	ex := tc.Recorder().Find(kept.ID()).Export()
	_ = kept.Export()
	if calls != 1 || len(ex.Spans[1].Hops) != 3 {
		t.Fatalf("kept trace: %d replays, %d hops exported; want 1, 3", calls, len(ex.Spans[1].Hops))
	}
	if end := kept.start.Add(kept.Duration()); at.Before(end) {
		t.Fatalf("replayed at %v, before the trace ended at %v", at, end)
	}
}

// TestEventlessSpanAllocatesOnce: a span allocates its event list on its
// first event, so opening and ending one that records nothing — as most
// round spans do — allocates the span alone.
func TestEventlessSpanAllocatesOnce(t *testing.T) {
	root := New(Config{SampleRate: 1}).StartRequest("req", "").Root()
	if n := testing.AllocsPerRun(1000, func() { root.Child("round").End() }); n != 1 {
		t.Fatalf("an eventless span allocated %v times per span, want 1", n)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	var sp *Span
	// None of these may panic; Child must return nil so chains stay no-op.
	tr.Finish()
	tr.SetError("x")
	if tr.Sampled() || tr.Err() != "" || tr.Traceparent() != "" || !tr.ID().IsZero() || tr.Root() != nil || tr.Duration() != 0 {
		t.Fatal("nil Trace not inert")
	}
	if sp.Recording() || sp.Child("c") != nil || sp.HopRing() != 0 || !sp.ID().IsZero() {
		t.Fatal("nil Span not inert")
	}
	sp.SetAttr(String("k", "v"))
	sp.SetName("n")
	sp.Event("e")
	sp.Tail(3, func(func(HopEvent)) { t.Fatal("a nil span replayed") })
	sp.End()
}

func TestRecorderRing(t *testing.T) {
	tc := New(Config{SampleRate: 1, Capacity: 3})
	ids := make([]TraceID, 5)
	for i := range ids {
		w := tc.StartRequest("r", "")
		ids[i] = w.ID()
		w.Finish()
	}
	rec := tc.Recorder()
	if rec.Capacity() != 3 || rec.Kept() != 5 {
		t.Fatalf("capacity=%d kept=%d", rec.Capacity(), rec.Kept())
	}
	recent := rec.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("recent: %d traces, want 3", len(recent))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []TraceID{ids[4], ids[3], ids[2]} {
		if recent[i].ID() != want {
			t.Fatalf("recent[%d] = %v, want %v", i, recent[i].ID(), want)
		}
	}
	if got := rec.Recent(1); len(got) != 1 || got[0].ID() != ids[4] {
		t.Fatal("Recent(1) wrong")
	}
	if rec.Find(ids[0]) != nil {
		t.Fatal("evicted trace still findable")
	}
	if rec.Find(ids[4]) == nil {
		t.Fatal("newest trace not findable")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	tc := New(Config{SampleRate: 1, Capacity: 16})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				w := tc.StartRequest("r", "")
				w.Root().Tail(1, tail(0, 1))
				w.Finish()
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range tc.Recorder().Recent(0) {
				_ = tr.Summarize()
				_ = tr.Export()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := tc.Recorder().Kept(); got != 2000 {
		t.Fatalf("kept %d, want 2000", got)
	}
}
