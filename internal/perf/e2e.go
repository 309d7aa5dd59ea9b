package perf

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options configures one benchmark run.
type Options struct {
	// Bin is the adhocd binary to boot (see BuildDaemon).
	Bin string
	// Seed derives every pair, spec and schedule of the run.
	Seed uint64
	// Warmup is the unmeasured closed-loop lead-in; Measure the window
	// that is measured after it.
	Warmup, Measure time.Duration
	// Trace adds the per-layer ladder after the end-to-end run.
	Trace bool
	// LadderQueries and LadderCap bound the ladder: the first
	// LadderQueries requests of the seeded stream, stopping early once
	// LadderCap has elapsed.
	LadderQueries int
	LadderCap     time.Duration
	// Spans receives the ladder's spans (nil keeps a private recorder).
	Spans *Spans
	// Out receives the human-readable report (nil discards it).
	Out io.Writer
}

// Benchmark defaults: a 2 s warm-up, then the first 2000 queries of the
// stream for the ladder, capped at 8 s.
const (
	DefaultWarmup        = 2 * time.Second
	DefaultLadderQueries = 2000
	DefaultLadderCap     = 8 * time.Second
)

// Setup is measured over boots daemon starts; the last one serves the run.
// A start takes milliseconds, so one is noise; the median of nine is not.
const boots = 9

// worldReplay is how many requests per world the replay oracle re-runs.
const worldReplay = 1000

// loopStats aggregates one closed-loop measurement.
type loopStats struct {
	lat       []float64 // µs per completed logical request in the window
	attempted int64     // logical requests started in the window
	errors    int64     // transport errors and non-2xx replies after retries
	rejected  int64     // 429 replies
	server5xx int64     // 5xx replies
	wrong     int64     // verdicts the oracle refutes
	requests  int64     // HTTP requests sent (resume segments, tenant retries)
	bytes     int64     // reply bytes
	certs     int64     // replies carrying a reachability certificate
	reregs    int64     // tenant 404s answered by re-registering the spec
	worldLogs [][]logged
}

func (s *loopStats) add(o *loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.attempted += o.attempted
	s.errors += o.errors
	s.rejected += o.rejected
	s.server5xx += o.server5xx
	s.wrong += o.wrong
	s.requests += o.requests
	s.bytes += o.bytes
	s.certs += o.certs
	s.reregs += o.reregs
}

// closedLoop drives base with conns connections, each sending its next
// request only when the previous one has returned, for warm+measure.
// Requests started in the first warm are not measured, but world requests
// are logged from the first one on, because all of them move the world.
func (in *inputs) closedLoop(base string, warm, measure time.Duration) *loopStats {
	start := time.Now()
	from, end := start.Add(warm), start.Add(warm+measure)
	per := make([]*loopStats, conns)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &loopStats{}
			per[i] = st
			c := newConn(base)
			defer c.close()
			s := in.stream(i)
			var log []logged
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				q := s.next()
				o := in.do(c, q)
				lat := time.Since(t0)
				if q.op >= opWorldRoute && len(log) < worldReplay {
					log = append(log, logged{q, o})
				}
				if t0.Before(from) {
					continue
				}
				st.attempted++
				st.requests += int64(o.segments)
				st.bytes += int64(o.bytes)
				if o.reregistered {
					st.reregs++
				}
				if o.err != "" {
					st.errors++
					switch {
					case o.code == http.StatusTooManyRequests:
						st.rejected++
					case o.code >= 500:
						st.server5xx++
					}
					continue
				}
				st.lat = append(st.lat, us(lat))
				if len(o.Certificate) > 0 {
					st.certs++
				}
				if !in.verdictOK(q, o) {
					st.wrong++
				}
			}
			st.worldLogs = [][]logged{log}
		}(i)
	}
	wg.Wait()
	all := &loopStats{}
	for _, st := range per {
		all.add(st)
		all.worldLogs = append(all.worldLogs, st.worldLogs...)
	}
	return all
}

// bootReady execs a daemon for the workload and prepares it: healthz
// answers 200 and the workload's setup is done.
func (in *inputs) bootReady(bin string, extra ...string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, append(in.wl.bootArgs(), extra...))
	if err != nil {
		return nil, 0, err
	}
	c := newConn(d.base)
	defer c.close()
	err = waitHealthy(c)
	if err == nil {
		err = in.setup(c)
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func waitHealthy(c *conn) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		_, err := c.call(http.MethodGet, "/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("perf: /healthz never answered 200: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// serverCounters are daemon-side counters read over HTTP after a run.
type serverCounters struct {
	heapMB, gcPauseS             float64
	recompiles, delta, cacheHits int64
}

// registryStats is the registry block of GET /v1/stats.
type registryStats struct {
	Registry struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Compiles  int64 `json:"compiles"`
		Dedups    int64 `json:"dedups"`
		Evictions int64 `json:"evictions"`
	} `json:"registry"`
}

// scrape reads the daemon's runtime gauges from /metrics, its registry
// counters from /v1/stats, and its worlds' compile counters.
func (in *inputs) scrape(c *conn) (serverCounters, registryStats, error) {
	var sc serverCounters
	var rs registryStats
	text, err := c.getText("/metrics")
	if err != nil {
		return sc, rs, err
	}
	sc.heapMB = metricValue(text, "go_memstats_heap_alloc_bytes") / 1e6
	sc.gcPauseS = metricValue(text, "go_gc_pause_seconds_sum")
	if err := c.getJSON("/v1/stats", &rs); err != nil {
		return sc, rs, err
	}
	if in.wl.Name == WorldChurn {
		for i := range conns {
			var wi struct {
				Recompiles int64 `json:"recompiles"`
				Delta      int64 `json:"delta_recompiles"`
				CacheHits  int64 `json:"compile_cache_hits"`
			}
			if err := c.getJSON("/v1/worlds/w"+strconv.Itoa(i), &wi); err != nil {
				return sc, rs, err
			}
			sc.recompiles += wi.Recompiles
			sc.delta += wi.Delta
			sc.cacheHits += wi.CacheHits
		}
	}
	return sc, rs, nil
}

// metricValue returns the value of an unlabelled sample in a Prometheus
// text exposition (0 when absent).
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// e2e is the outcome of the end-to-end part of a run.
type e2e struct {
	metrics  map[string]Metric
	loop     *loopStats
	counters serverCounters
	before   registryStats
	after    registryStats
	p50      float64
	peakRSS  float64 // VmHWM at the end of the run, MB
}

// runE2E boots the daemon boots times (setup_s is the median), drives the
// last boot with the closed loop while sampling its resident set, and
// checks every verdict.
func (in *inputs) runE2E(opt Options) (*e2e, error) {
	var setups []float64
	var d *daemon
	for b := range boots {
		bd, el, err := in.bootReady(opt.Bin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
		if b < boots-1 {
			if err := bd.stop(); err != nil {
				return nil, err
			}
		} else {
			d = bd
		}
	}
	defer d.stop()
	c := newConn(d.base)
	defer c.close()
	out := &e2e{}
	if err := c.getJSON("/v1/stats", &out.before); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var rss []float64
	var rssErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		rss, rssErr = d.sampleRSS(opt.Warmup, stop)
	}()
	ls := in.closedLoop(d.base, opt.Warmup, opt.Measure)
	close(stop)
	<-sampled
	if rssErr != nil {
		return nil, rssErr
	}
	var err error
	if out.peakRSS, err = d.memMB("VmHWM"); err != nil {
		return nil, err
	}
	if out.counters, out.after, err = in.scrape(c); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	// Each world has a single writer, so its log replays exactly.
	var wg sync.WaitGroup
	wrong := make([]int, len(ls.worldLogs))
	errs := make([]error, len(ls.worldLogs))
	for i, log := range ls.worldLogs {
		if len(log) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, log []logged) {
			defer wg.Done()
			wrong[i], errs[i] = in.replayWorld(i, log)
		}(i, log)
	}
	wg.Wait()
	for i := range wrong {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ls.wrong += int64(wrong[i])
	}
	out.loop = ls
	n := len(ls.lat)
	out.p50 = Percentile(ls.lat, 50)
	errRatio := 0.0
	if ls.attempted > 0 {
		errRatio = float64(ls.errors) / float64(ls.attempted)
	}
	out.metrics = map[string]Metric{
		"setup_s":        {Value: Median(setups), Unit: "s", Samples: len(setups)},
		"throughput_rps": {Value: float64(n) / opt.Measure.Seconds(), Unit: "req/s", Samples: n},
		"p50_us":         {Value: out.p50, Unit: "us", Samples: n},
		"p99_us":         {Value: Percentile(ls.lat, 99), Unit: "us", Samples: n},
		"error_ratio":    {Value: errRatio, Unit: "ratio", Samples: int(ls.attempted)},
		"wrong_verdicts": {Value: float64(ls.wrong), Unit: "count", Samples: int(ls.attempted)},
		"rss_mb":         {Value: Median(rss), Unit: "MB", Samples: len(rss)},
	}
	return out, nil
}
