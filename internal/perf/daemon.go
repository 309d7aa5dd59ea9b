package perf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FindRoot walks up from dir to the repository root: the directory whose
// go.mod declares module repro.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("perf: no enclosing directory has the go.mod of module repro")
		}
		dir = parent
	}
}

// BuildDaemon compiles cmd/adhocd from the source tree at root into out.
func BuildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/adhocd")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("perf: go build ./cmd/adhocd: %v: %s", err, stderr.Bytes())
	}
	return nil
}

// daemon is one running adhocd process bound to a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed when the stdout reader has hit EOF
	stderr  bytes.Buffer

	stopOnce sync.Once
	stopErr  error
}

// bootTimeout bounds how long a daemon may take to compile its boot
// network and bind its listener.
const bootTimeout = 60 * time.Second

// startDaemon execs bin with the production defaults plus args, listening
// on an ephemeral loopback port learned from its "listening on" line.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("perf: start adhocd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		const marker = "adhocd: listening on "
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), marker); ok {
				addr <- a
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
		d.wait()
		return nil, fmt.Errorf("perf: adhocd exited before listening: %s", d.stderr.Bytes())
	case <-time.After(bootTimeout):
		d.cmd.Process.Kill()
		d.wait()
		return nil, errors.New("perf: adhocd did not report a listener in time")
	}
}

func (d *daemon) wait() error {
	<-d.drained
	return d.cmd.Wait()
}

// stop sends SIGTERM (the daemon drains and exits) and waits for the
// process, killing it if the drain overruns. Later calls return the first
// call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() { d.stopErr = d.terminate() })
	return d.stopErr
}

func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("perf: adhocd did not drain within 15s")
	}
}

// memMB reads one memory field of the daemon's /proc status — VmRSS (the
// resident set now) or VmHWM (its high-water mark) — in MB.
func (d *daemon) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("perf: %s %q: %w", field, v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("perf: no %s line in /proc status", field)
}

// sampleRSS records the daemon's VmRSS every 100ms, from warm after the
// call until stop is closed.
func (d *daemon) sampleRSS(warm time.Duration, stop <-chan struct{}) ([]float64, error) {
	select {
	case <-time.After(warm):
	case <-stop:
		return nil, nil
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var mbs []float64
	for {
		mb, err := d.memMB("VmRSS")
		if err != nil {
			return nil, err
		}
		mbs = append(mbs, mb)
		select {
		case <-tick.C:
		case <-stop:
			return mbs, nil
		}
	}
}
