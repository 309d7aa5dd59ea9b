package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestBuildGraph(t *testing.T) {
	g, pos, desc, err := buildGraph("", "grid", 3, 4, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 || !strings.Contains(desc, "grid") {
		t.Fatalf("grid: %d nodes, desc %q", g.NumNodes(), desc)
	}
	if pos != nil {
		t.Fatal("grid returned a placement")
	}
	for _, kind := range []string{"udg2d", "udg3d"} {
		g, pos, _, err := buildGraph("", kind, 0, 0, 32, 0.3, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumNodes() != 32 {
			t.Fatalf("%s: %d nodes", kind, g.NumNodes())
		}
		if len(pos) != 32 {
			t.Fatalf("%s: %d positions, want 32", kind, len(pos))
		}
	}
	if _, _, _, err := buildGraph("", "torus", 0, 0, 0, 0, 0); err == nil {
		t.Fatal("unknown kind did not error")
	}
	if _, _, _, err := buildGraph("/nonexistent/net.txt", "", 0, 0, 0, 0, 0); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestBuildGraphFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Cycle(8).Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, _, desc, err := buildGraph(path, "", 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 || !strings.Contains(desc, "file:") {
		t.Fatalf("loaded: %d nodes, desc %q", g.NumNodes(), desc)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-gen", "nope"}, &out, nil); err == nil {
		t.Fatal("bad -gen did not error")
	}
	if err := run([]string{"-bogus"}, &out, nil); err == nil {
		t.Fatal("unknown flag did not error")
	}
	// Out-of-range trace settings are refused by name, not clamped.
	for _, args := range [][]string{
		{"-trace-sample", "NaN"},
		{"-trace-sample", "-0.1"},
		{"-trace-sample", "1.5"},
		{"-trace-capacity", "-5"},
		{"-trace-capacity", "0"},
	} {
		err := run(args, &out, nil)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Fatalf("%v: error %v, want one naming %s", args, err, args[0])
		}
	}
}

// TestPprofFlag boots the daemon with -pprof and checks the profiling
// surface is live, then shuts it down.
func TestPprofFlag(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-gen", "grid", "-rows", "3", "-cols", "3", "-pprof"},
			&out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// syncBuffer is a goroutine-safe output sink: unlike the other daemon
// tests (which only read the log after the daemon has exited, so the
// done channel orders the accesses), TestMetricsAddr parses the log
// while the daemon is still running and may still write to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestMetricsAddr boots the daemon with a dedicated metrics listener and
// checks the exposition moved there: scrapes answer on the ops port and
// 404 on the serving port.
func TestMetricsAddr(t *testing.T) {
	var out syncBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-gen", "grid", "-rows", "3", "-cols", "3"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	// The metrics address is printed before ready fires; parse it out.
	var maddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "adhocd: metrics on "); ok {
			maddr = rest
		}
	}
	if maddr == "" {
		t.Fatalf("metrics address not logged: %s", out.String())
	}

	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET metrics listener /metrics = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET main listener /metrics = %d, want 404 (moved to -metrics-addr)", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestPprofOnMetricsAddr boots the daemon with both -pprof and
// -metrics-addr and checks the profiling surface moved to the ops
// listener: live there, absent from the public port.
func TestPprofOnMetricsAddr(t *testing.T) {
	var out syncBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-pprof",
			"-gen", "grid", "-rows", "3", "-cols", "3"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	var maddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "adhocd: metrics on "); ok {
			maddr = rest
		}
	}
	if maddr == "" {
		t.Fatalf("metrics address not logged: %s", out.String())
	}

	resp, err := http.Get("http://" + maddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("ops pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET ops listener /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET main listener /debug/pprof/ = %d, want 404 (moved to ops port)", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestServeAndGracefulShutdown boots the daemon on an ephemeral port,
// serves a real request, then delivers SIGINT and expects a clean drain.
func TestServeAndGracefulShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-gen", "grid", "-rows", "4", "-cols", "4"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Post("http://"+addr+"/v1/route", "application/json",
		bytes.NewReader([]byte(`{"src":0,"dst":15}`)))
	if err != nil {
		t.Fatalf("route request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route request: code %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v (output: %s)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown log: %s", out.String())
	}
}
