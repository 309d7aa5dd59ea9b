package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickSweepEndToEnd runs the whole driver in quick mode and checks a
// well-formed delivery-vs-churn table comes out — the acceptance check
// that cmd/churnsim works end to end (wrong verdicts abort the sweep
// inside runCell, so a rendered table certifies oracle agreement too).
func TestQuickSweepEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"delivery rate", "churn p", "| 0 |", "100%"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-csv", "-reps", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "churn p,speed,routes") {
		t.Fatalf("missing CSV header:\n%s", out.String())
	}
}

// TestScaleSweepSmall drives the -nodes scaling sweep end to end on small
// worlds and checks the table shape plus the delta-path floor: after the
// one seeding full compile, journal-sized churn must recompile via the
// delta path.
func TestScaleSweepSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nodes", "64,256", "-scale-epochs", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"delta path", "speedup", "| 64 |", "| 256 |"} {
		if !strings.Contains(got, want) {
			t.Fatalf("scaling table missing %q:\n%s", want, got)
		}
	}
	st, err := scaleCell(256, 20, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.totalRebuilds == 0 || st.deltaRebuilds < st.totalRebuilds/2 {
		t.Fatalf("delta path underused: %d of %d rebuilds", st.deltaRebuilds, st.totalRebuilds)
	}
}

// TestScale100kSmoke proves interactive-rate epoch advances on a
// 100k-node world: the delta path must recompile in well under a second
// and beat the forced full rebuild by a wide margin. Skipped under -short
// (the twin full-compile world makes this a multi-second test) and under
// the race detector, whose slowdown alone breaks the 250 ms bound.
func TestScale100kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node scaling smoke skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock scaling smoke skipped under the race detector")
	}
	st, err := scaleCell(100_000, 5, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	if st.nodes < 99_000 {
		t.Fatalf("world only reached %d nodes", st.nodes)
	}
	if st.deltaRebuilds == 0 {
		t.Fatal("no rebuild took the delta path at 100k nodes")
	}
	// Interactive rate: a churned epoch recompiles in well under a second.
	if st.deltaMeanUS > 250_000 {
		t.Fatalf("delta recompile averaged %.0fµs at 100k nodes, want interactive (<250ms)", st.deltaMeanUS)
	}
	if st.deltaMeanUS*3 > st.fullMeanUS {
		t.Fatalf("delta path (%.0fµs) not meaningfully faster than full (%.0fµs) at 100k nodes",
			st.deltaMeanUS, st.fullMeanUS)
	}
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-churn", "x"}, &out); err == nil {
		t.Fatal("bad -churn accepted")
	}
	if err := run([]string{"-speeds", ""}, &out); err == nil {
		t.Fatal("empty -speeds accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats(" 0, 0.5 ,1 ")
	if err != nil || len(got) != 3 || got[1] != 0.5 {
		t.Fatalf("parseFloats: %v, %v", got, err)
	}
	if _, err := parseFloats(","); err == nil {
		t.Fatal("empty list accepted")
	}
}
