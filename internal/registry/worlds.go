package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/obs"
)

// World lifecycle errors; the serving layer maps capacity to 429 and the
// rest to 4xx shape errors.
var (
	ErrWorldCapacity = errors.New("registry: world capacity exhausted")
	ErrWorldExists   = errors.New("registry: world name already in use")
	ErrBadWorldName  = errors.New("registry: invalid world name")
)

// DefaultWorldLimit bounds the world table when no limit is configured.
const DefaultWorldLimit = 16

// WorldEntry is one named long-lived dynamic world: a shared evolving
// dynamic.World plus the engine whose protocol configuration its routes
// speak. The World itself is concurrency-safe; any number of requests
// route over it at once.
type WorldEntry struct {
	// ID names the world in /v1/worlds/{id}/…: client-chosen or generated.
	ID string
	// Network is the spec of the tenant network the world was seeded from
	// (nil = the daemon's boot network). It is the registry entry's own
	// spec, so it outlives the entry's eviction from the LRU.
	Network *Spec
	// Schedule is the dynamics spec the world was created with. A
	// schedule that replays (dynamic.Spec.Replays) is epoch-deterministic,
	// so (Network, Schedule, epoch) fully determines the world's topology
	// — which is what lets cluster mode migrate a world between shards by
	// replaying it rather than serializing evolved state.
	Schedule dynamic.Spec
	// Eng is the engine the world was seeded from; dynamic routes take
	// their protocol parameters (seed, bounds) from it.
	Eng *engine.Engine
	// W is the shared evolving world.
	W *dynamic.World
	// Routes counts routing queries served over this world; the serving
	// layer increments it per request and the metric exposition lists it
	// per resident world.
	Routes atomic.Int64

	seq int // creation order, for stable listings
}

// Worlds is the bounded table of named worlds. Unlike the engine LRU,
// worlds are stateful (they have evolved), so they are never silently
// evicted: creation beyond the bound fails and clients delete explicitly.
// The bound limits what clients create; a world migrating in from another
// shard is admitted past it, up to the bound once for each shard whose
// worlds may move here, since the shard it leaves has nowhere else to put
// it.
type Worlds struct {
	mu    sync.Mutex
	limit int
	m     map[string]*WorldEntry
	names int // generated-name counter ("w<n>")
	seq   int // creation counter, for stable listing order

	// recompDelta/recompFull aggregate recompile latency across all worlds
	// (deleted ones included — latency history outlives the world), split
	// by compile path. Create installs the observer feeding them.
	recompDelta *obs.Histogram
	recompFull  *obs.Histogram
}

// NewWorlds builds an empty world table that clients may fill to limit
// worlds (0 = DefaultWorldLimit); see Create for migrated worlds.
func NewWorlds(limit int) *Worlds {
	if limit <= 0 {
		limit = DefaultWorldLimit
	}
	const recompHelp = "World snapshot recompile latency, by compile path (delta = journal-driven patch, full = from-scratch reduction)."
	return &Worlds{
		limit:       limit,
		m:           make(map[string]*WorldEntry),
		recompDelta: obs.NewLatencyHistogram("adhoc_world_recompile_duration_seconds", recompHelp, obs.Labels{"path": "delta"}),
		recompFull:  obs.NewLatencyHistogram("adhoc_world_recompile_duration_seconds", recompHelp, obs.Labels{"path": "full"}),
	}
}

// validWorldName accepts 1..64 chars of [A-Za-z0-9_-] — IDs appear in
// URL paths.
func validWorldName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// admitLocked is the shared gate for Create and Precheck: name rules,
// duplicates, then capacity: at most limit worlds for each of shards.
func (ws *Worlds) admitLocked(name string, shards int) error {
	if name != "" {
		if !validWorldName(name) {
			return fmt.Errorf("%w: %q (want 1-64 chars of [A-Za-z0-9_-])", ErrBadWorldName, name)
		}
		if _, taken := ws.m[name]; taken {
			return fmt.Errorf("%w: %q", ErrWorldExists, name)
		}
	}
	if len(ws.m) >= ws.limit*shards {
		return fmt.Errorf("%w: %d worlds resident (delete one first)", ErrWorldCapacity, len(ws.m))
	}
	return nil
}

// Precheck reports whether Create(name, …, shards) would currently be
// admitted, without reserving anything. The serving layer calls it before
// paying for world construction (a full graph clone); Create remains the
// authoritative check.
func (ws *Worlds) Precheck(name string, shards int) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.admitLocked(name, shards)
}

// Create registers ent under name (empty = a generated "w<n>" ID) and
// returns it with ID and ordering filled in. It fails with
// ErrWorldCapacity once the table holds limit worlds for each of shards:
// 1 for a client create, and for a world migrating in, every shard whose
// worlds may be handed to this one.
func (ws *Worlds) Create(name string, ent *WorldEntry, shards int) (*WorldEntry, error) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err := ws.admitLocked(name, shards); err != nil {
		return nil, err
	}
	if name == "" {
		for {
			ws.names++
			name = fmt.Sprintf("w%d", ws.names)
			if _, taken := ws.m[name]; !taken {
				break
			}
		}
	}
	ent.ID = name
	ws.seq++
	ent.seq = ws.seq
	ws.m[name] = ent
	// Feed the shared recompile-latency histograms from this world's
	// rebuilds. The observer runs under the world's lock, so it only does
	// the lock-free histogram observe.
	ent.W.SetRecompileObserver(func(path string, _ uint64, d time.Duration) {
		if path == "delta" {
			ws.recompDelta.Observe(int64(d))
		} else {
			ws.recompFull.Observe(int64(d))
		}
	})
	return ent, nil
}

// Get returns the named world.
func (ws *Worlds) Get(id string) (*WorldEntry, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ent, ok := ws.m[id]
	return ent, ok
}

// Delete removes the named world, reporting whether it existed. In-flight
// routes over it finish normally (they hold their own reference).
func (ws *Worlds) Delete(id string) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	_, ok := ws.m[id]
	delete(ws.m, id)
	return ok
}

// List returns the resident worlds in creation order.
func (ws *Worlds) List() []*WorldEntry {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*WorldEntry, 0, len(ws.m))
	for _, ent := range ws.m {
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Len returns the number of resident worlds.
func (ws *Worlds) Len() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.m)
}

// RegisterMetrics exports the world table into o: an occupancy gauge plus
// per-world epoch/link/recompile/cache-hit gauges labeled by world ID.
// Everything is read at collect time: each family lists the table and
// snapshots every world under its routing mutex, so one scrape costs a
// handful of brief lock acquisitions per resident world — held only for
// field copies, never across a recompile, and paid at scrape cadence
// (seconds), not query cadence.
func (ws *Worlds) RegisterMetrics(o *obs.Registry) error {
	samples := func(f func(dynamic.Snapshot) float64) func() []obs.Sample {
		return func() []obs.Sample {
			ents := ws.List()
			out := make([]obs.Sample, len(ents))
			for i, ent := range ents {
				out[i] = obs.Sample{Labels: obs.Labels{"world": ent.ID}, Value: f(ent.W.Snapshot())}
			}
			return out
		}
	}
	perWorld := func(name, help string, f func(dynamic.Snapshot) float64) *obs.VecFunc {
		return obs.NewGaugeVecFunc(name, help, samples(f))
	}
	perWorldCounter := func(name, help string, f func(dynamic.Snapshot) float64) *obs.VecFunc {
		return obs.NewCounterVecFunc(name, help, samples(f))
	}
	return o.Register(
		obs.NewGaugeFunc("adhoc_worlds", "Resident named dynamic worlds.", nil,
			func() float64 { return float64(ws.Len()) }),
		perWorld("adhoc_world_epoch", "Current epoch per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.Epoch) }),
		perWorld("adhoc_world_links", "Current link count per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.Links) }),
		perWorld("adhoc_world_recompiles", "Churn-forced snapshot recompiles per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.Recompiles) }),
		perWorldCounter("adhoc_world_delta_recompiles_total",
			"Rebuilds that took the O(diff) journal/delta compile path, per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.DeltaRecompiles) }),
		perWorldCounter("adhoc_world_full_recompiles_total",
			"Rebuilds that took the O(graph) full compile path, per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.FullRecompiles) }),
		ws.recompDelta,
		ws.recompFull,
		perWorld("adhoc_world_compile_cache_hits", "Compile-cache hits per resident world.",
			func(s dynamic.Snapshot) float64 { return float64(s.CacheHits) }),
		perWorld("adhoc_world_recompile_seconds", "Total wall time spent in churn-forced rebuilds per resident world.",
			func(s dynamic.Snapshot) float64 { return s.RecompileTime.Seconds() }),
		obs.NewGaugeVecFunc("adhoc_world_routes",
			"Routing queries served per resident world (drops when the world is deleted, hence a gauge).",
			func() []obs.Sample {
				ents := ws.List()
				out := make([]obs.Sample, len(ents))
				for i, ent := range ents {
					out[i] = obs.Sample{Labels: obs.Labels{"world": ent.ID}, Value: float64(ent.Routes.Load())}
				}
				return out
			}),
	)
}
