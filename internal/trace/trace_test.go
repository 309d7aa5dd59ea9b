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

func TestSpanTreeAndExport(t *testing.T) {
	tc := New(Config{SampleRate: 1, HopRing: 4, EventCap: 2})
	tr := tc.StartRequest("req", "")
	root := tr.Root()
	root.SetAttr(String("endpoint", "/v1/route"), Int("src", 3))
	walk := root.Child("walk")
	walk.Event("round", Int("bound", 4))
	walk.Event("epoch", Int("version", 2))
	walk.Event("overflow") // beyond EventCap: dropped, counted
	for i := 0; i < 10; i++ {
		walk.Hop(HopEvent{Node: int64(i), Index: int64(i + 1), HeaderBits: 24})
	}
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
	if len(walkEx.Events) != 2 || walkEx.EventsDropped != 1 {
		t.Fatalf("events %d dropped %d, want 2/1", len(walkEx.Events), walkEx.EventsDropped)
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

// TestSkipHops checks a tail recorded after SkipHops: the skipped hops
// count toward the total and the ordinals, and only recorded hops are kept
// — in order, across the ring's wrap — while a span without hops exports
// none.
func TestSkipHops(t *testing.T) {
	tc := New(Config{SampleRate: 1, HopRing: 4})
	tr := tc.StartRequest("req", "")
	for _, c := range []struct{ skip, record, dropped int64 }{{100, 3, 100}, {100, 6, 102}, {0, 9, 5}} {
		sp := tr.Root().Child("walk")
		sp.SkipHops(c.skip)
		for i := int64(0); i < c.record; i++ {
			sp.Hop(HopEvent{Node: c.skip + i})
		}
		ex := sp.export()
		if ex.HopTotal != c.skip+c.record || ex.HopsDropped != c.dropped || int64(len(ex.Hops)) != c.record-(c.dropped-c.skip) {
			t.Fatalf("skip %d record %d: total=%d dropped=%d kept=%d", c.skip, c.record, ex.HopTotal, ex.HopsDropped, len(ex.Hops))
		}
		for i, h := range ex.Hops {
			if want := c.dropped + int64(i); h.Hop != want || h.Node != want {
				t.Fatalf("skip %d record %d: tail hop %d = %+v", c.skip, c.record, i, h)
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
	sp.Hop(HopEvent{})
	sp.SkipHops(3)
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
				w.Root().Hop(HopEvent{Node: int64(i)})
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
