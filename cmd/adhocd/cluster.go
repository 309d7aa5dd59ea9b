package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Proxy-tier headers. X-Adhoc-Forwarded is the single-hop loop guard: a
// request carrying it is served locally no matter what the ring says, so
// two shards with momentarily different views bounce a request at most
// once instead of ping-ponging it. X-Adhoc-Shard names the shard that
// actually served the request (the forward target, or self).
const (
	forwardedHeader = "X-Adhoc-Forwarded"
	shardHeader     = "X-Adhoc-Shard"
)

// migratePath is the internal endpoint world ownership moves over during
// rebalance and drain. Like the gossip endpoint it bypasses admission
// control: a draining shard must be able to hand its worlds to a busy
// peer.
const migratePath = "/v1/cluster/migrate"

// clusterConfig carries the -cluster-* flags into newServer.
type clusterConfig struct {
	name      string        // stable shard identity (ring + gossip name)
	advertise string        // advertised base URL; "" = derive from the bound listener
	peers     []string      // seed base URLs for gossip bootstrap
	vnodes    int           // virtual nodes per member (0 = cluster.DefaultVnodes)
	interval  time.Duration // gossip tick cadence (0 = 500ms)
	suspect   int           // ticks of silence before suspect (0 = default)
	dead      int           // further ticks before dead (0 = default)
}

// clusterNode is one shard's distribution layer: gossip membership, the
// consistent-hash ring rebuilt on every view change, the forwarding
// client, and the world-rebalance machinery. The routing data plane is
// untouched — the node only decides WHERE a request runs, then either
// serves it locally or forwards it one hop.
type clusterNode struct {
	s   *server
	cfg clusterConfig

	gossip *cluster.Gossip
	ring   atomic.Pointer[cluster.Ring]
	client *http.Client

	// started gates rebalancing: ring changes during construction (the
	// initial self-only view) must not trigger migrations.
	started atomic.Bool
	// rebalMu serializes rebalance sweeps; a burst of ring changes folds
	// into sequential sweeps over the current view instead of racing.
	rebalMu sync.Mutex

	forwards      *obs.Counter
	forwardErrs   *obs.Counter
	migrationsOut *obs.Counter
	migrationsIn  *obs.Counter
	migrationErrs *obs.Counter
	ringChanges   *obs.Counter
}

// newClusterNode wires the distribution layer for s.
func newClusterNode(s *server, cfg clusterConfig) *clusterNode {
	if cfg.vnodes <= 0 {
		cfg.vnodes = cluster.DefaultVnodes
	}
	if cfg.interval <= 0 {
		cfg.interval = 500 * time.Millisecond
	}
	c := &clusterNode{
		s:      s,
		cfg:    cfg,
		client: &http.Client{Timeout: 10 * time.Second},
		forwards: obs.NewCounter("adhoc_cluster_forwards_total",
			"Requests forwarded to their owning shard.", nil),
		forwardErrs: obs.NewCounter("adhoc_cluster_forward_errors_total",
			"Forwards that failed at the transport (answered 502).", nil),
		migrationsOut: obs.NewCounter("adhoc_cluster_migrations_out_total",
			"Worlds this shard handed to their new owner during rebalance or drain.", nil),
		migrationsIn: obs.NewCounter("adhoc_cluster_migrations_in_total",
			"Worlds this shard received and replayed from another shard.", nil),
		migrationErrs: obs.NewCounter("adhoc_cluster_migration_errors_total",
			"World migrations that failed (world stays on the old owner).", nil),
		ringChanges: obs.NewCounter("adhoc_cluster_ring_changes_total",
			"Ring rebuilds caused by membership changes.", nil),
	}
	c.gossip = cluster.New(cluster.Config{
		Self:              cluster.PeerState{Name: cfg.name, Addr: cfg.advertise},
		Seeds:             cfg.peers,
		SuspectAfterTicks: cfg.suspect,
		DeadAfterTicks:    cfg.dead,
		Transport:         cluster.NewHTTPTransport(cfg.name),
		OnChange:          c.onChange,
	})
	c.refreshRing()
	return c
}

// refreshRing rebuilds the placement ring from the current alive set.
func (c *clusterNode) refreshRing() {
	c.ring.Store(cluster.BuildRing(c.gossip.Membership().Alive(), c.cfg.vnodes))
}

// onChange runs on every alive-set change: rebuild the ring, then sweep
// the local worlds for any whose ownership moved. The sweep is async —
// OnChange fires from gossip goroutines that must not block on HTTP.
func (c *clusterNode) onChange() {
	c.refreshRing()
	c.ringChanges.Inc()
	if c.started.Load() {
		go c.rebalanceWorlds(context.Background())
	}
}

// run starts the gossip loop. boundAddr is the base URL derived from the
// actual listener, used when no -cluster-advertise was configured (the
// :0 and single-host cases).
func (c *clusterNode) run(boundAddr string, stop <-chan struct{}) {
	if c.cfg.advertise == "" {
		c.setAdvertise(boundAddr)
	}
	c.started.Store(true)
	c.gossip.Run(c.cfg.interval, stop)
}

// setAdvertise fixes self's advertised address after the listener is
// bound (tests and :0 binds construct the server before the port exists).
func (c *clusterNode) setAdvertise(addr string) {
	c.cfg.advertise = addr
	c.gossip.Membership().SetSelfAddr(addr)
	c.refreshRing()
}

// owner resolves key's owning shard on the current ring.
func (c *clusterNode) owner(key string) (cluster.Member, bool) {
	return c.ring.Load().Owner(key)
}

// leave departs the cluster deliberately: broadcast the death verdict,
// then synchronously hand every local world to its new owner. Called from
// BeginDrain, before the listener closes, so migrations still have a
// serving peer set to land on.
func (c *clusterNode) leave() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.gossip.Leave(ctx)
	c.refreshRing() // self is gone from the alive set now
	c.rebalanceWorlds(ctx)
}

// rebalanceWorlds migrates every locally-resident world whose owner on
// the current ring is some other shard. Successful handoff deletes the
// local copy; failures leave it in place (counted, retried on the next
// ring change).
func (c *clusterNode) rebalanceWorlds(ctx context.Context) {
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()
	for _, ent := range c.s.worlds.List() {
		ring := c.ring.Load()
		owner, ok := ring.Owner("world:" + ent.ID)
		if !ok || owner.Name == c.cfg.name {
			continue
		}
		if err := c.migrateWorld(ctx, ent, owner); err != nil {
			c.migrationErrs.Inc()
			continue
		}
		c.s.worlds.Delete(ent.ID)
		c.migrationsOut.Inc()
	}
}

// migratePayload is the world-handoff wire shape: the world's replay
// tuple — the backing network's spec (inline, so the transfer does not
// race either shard's LRU), the schedule, and how many epochs to advance.
// Cluster mode admits only schedules that replay, so the replayed world is
// byte-identical to the original.
type migratePayload struct {
	Name        string         `json:"name"`
	NetworkSpec *registry.Spec `json:"network_spec,omitempty"` // nil = the boot network
	Schedule    dynamic.Spec   `json:"schedule"`
	Epochs      int            `json:"epochs"`
}

// migrateWorld posts one world to its new owner.
func (c *clusterNode) migrateWorld(ctx context.Context, ent *registry.WorldEntry, owner cluster.Member) error {
	body, err := json.Marshal(migratePayload{
		Name:        ent.ID,
		NetworkSpec: ent.Network,
		Schedule:    ent.Schedule,
		Epochs:      ent.W.Snapshot().Epoch,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner.Addr+migratePath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("migrate %s to %s: status %d", ent.ID, owner.Name, resp.StatusCode)
	}
	return nil
}

// fetchNetwork resolves a network that is not resident locally by asking
// its owning shard for the spec (GET /v1/networks/{id} carries it) and
// compiling it into the local registry. This is what lets a world whose
// name hashes to this shard be backed by a network whose ID hashes to
// another: the spec-derived ID guarantees both shards build the same
// engine.
func (c *clusterNode) fetchNetwork(ctx context.Context, id string) (*registry.Entry, bool) {
	owner, ok := c.owner("net:" + id)
	if !ok || owner.Name == c.cfg.name {
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner.Addr+"/v1/networks/"+id, nil)
	if err != nil {
		return nil, false
	}
	// Loop guard: the owner must answer from its own registry, not bounce
	// the lookup back here.
	req.Header.Set(forwardedHeader, c.cfg.name)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var info struct {
		Spec *registry.Spec `json:"spec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Spec == nil {
		return nil, false
	}
	ent, _, err := c.s.reg.Obtain(*info.Spec)
	if err != nil {
		return nil, false
	}
	return ent, true
}

// handleInfo serves GET /v1/cluster: the shard map — this shard's
// identity, the ring (version + members), the raw peer states, and the
// gossip traffic counters. Converged shards report identical
// ring_version; that equality is the operational convergence check.
func (c *clusterNode) handleInfo(w http.ResponseWriter, _ *http.Request) {
	ring := c.ring.Load()
	writeJSON(w, http.StatusOK, struct {
		Self        string              `json:"self"`
		RingVersion string              `json:"ring_version"`
		Vnodes      int                 `json:"vnodes"`
		Members     []cluster.Member    `json:"members"`
		Peers       []cluster.PeerState `json:"peers"`
		Worlds      int                 `json:"worlds"`
		Gossip      cluster.Stats       `json:"gossip"`
	}{
		Self:        c.cfg.name,
		RingVersion: fmt.Sprintf("%016x", ring.Version()),
		Vnodes:      c.cfg.vnodes,
		Members:     ring.Members(),
		Peers:       c.gossip.Membership().Snapshot(),
		Worlds:      c.s.worlds.Len(),
		Gossip:      c.gossip.Stats(),
	})
}

// handleGossip serves POST /v1/cluster/gossip: merge the sender's view,
// reply with ours (push-pull). Bypasses admission control in ServeHTTP —
// an overloaded shard must not be gossiped dead — so the body cap is
// applied here.
func (c *clusterNode) handleGossip(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var in cluster.Wire
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		writeDecodeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.Wire{
		From:   c.cfg.name,
		States: c.gossip.HandleExchange(in.States),
	})
}

// handleMigrate serves POST /v1/cluster/migrate: rebuild the offered
// world by replay — obtain the backing network (compiling it if this
// shard never served it), then let buildWorld advance a fresh world to
// the source's epoch and publish it once fully caught up. It admits the
// world past -max-worlds, since refusing it would strand the world on a
// shard that is shutting down, but only up to the bound once for every
// shard this one has known, departed ones included: a drain hands over
// what the leaving shard holds, and that may include the worlds of shards
// that left before it. The endpoint is unauthenticated, so that ceiling
// is what bounds the worlds it can add.
func (c *clusterNode) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if limit := c.s.maxBody; limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	var p migratePayload
	if !decodeBody(w, r, &p) {
		return
	}
	if p.Name == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "a migrated world needs its name"})
		return
	}
	const maxMigrateEpochs = 1 << 20
	if p.Epochs < 0 || p.Epochs > maxMigrateEpochs {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("epochs %d outside [0, %d]", p.Epochs, maxMigrateEpochs)})
		return
	}
	// Idempotence: a retried handoff (or one that raced a ring flap) finds
	// the world already resident and reports success without replaying.
	if ent, ok := c.s.worlds.Get(p.Name); ok {
		writeJSON(w, http.StatusOK, worldInfoOf(ent))
		return
	}
	var net *registry.Entry
	if p.NetworkSpec != nil {
		var err error
		if net, _, err = c.s.reg.Obtain(*p.NetworkSpec); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
	}
	ent, ok := c.s.buildWorld(w, p.Name, net, p.Schedule, p.Epochs, len(c.gossip.Membership().Snapshot()))
	if !ok {
		return
	}
	c.migrationsIn.Inc()
	writeJSON(w, http.StatusCreated, worldInfoOf(ent))
}

// keyFunc derives the placement key for a request. body is the raw
// request body for methods that carry one (already read by the wrapper).
// A rewritten body replaces the original (world creates get a generated
// cluster-unique name injected). ok=false means "cannot place" — serve
// locally and let the handler produce the proper client error.
type keyFunc func(r *http.Request, body []byte) (key string, rewritten []byte, ok bool)

// netIDKey places /v1/networks/{id}/* by the path's spec-derived ID.
func netIDKey(r *http.Request, _ []byte) (string, []byte, bool) {
	return "net:" + r.PathValue("id"), nil, true
}

// worldIDKey places /v1/worlds/{id}/* by the world name.
func worldIDKey(r *http.Request, _ []byte) (string, []byte, bool) {
	return "world:" + r.PathValue("id"), nil, true
}

// netCreateKey places POST /v1/networks by the spec's canonical ID — the
// same derivation the registry uses, so the create lands on the shard
// every later /v1/networks/{id}/route will hash to. The pre-decode is
// lenient; a body the strict handler would reject is served locally so
// the error reply is identical to single-server mode.
func netCreateKey(_ *http.Request, body []byte) (string, []byte, bool) {
	var spec registry.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		return "", nil, false
	}
	return "net:" + spec.ID(), nil, true
}

// worldCreateKey places POST /v1/worlds by the world name. A nameless
// create gets a generated cluster-unique name injected into the body
// first — per-shard "w<n>" counters would collide across shards.
func worldCreateKey(_ *http.Request, body []byte) (string, []byte, bool) {
	var probe struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return "", nil, false
	}
	if probe.Name != "" {
		return "world:" + probe.Name, nil, true
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil || fields == nil {
		return "", nil, false
	}
	name := genWorldName()
	nameJSON, err := json.Marshal(name)
	if err != nil {
		return "", nil, false
	}
	fields["name"] = nameJSON
	rewritten, err := json.Marshal(fields)
	if err != nil {
		return "", nil, false
	}
	return "world:" + name, rewritten, true
}

// genWorldName makes a cluster-unique world name. Random rather than a
// counter: shards share no sequence, and 48 bits keeps accidental
// collision out of reach at any plausible world count.
func genWorldName() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("adhocd: reading random world name: %v", err))
	}
	return "w-" + hex.EncodeToString(b[:])
}

// clustered wraps a tenant handler with ownership routing. Single-server
// mode (no cluster) is a nil check and a direct call — the data path is
// unchanged. In cluster mode: forwarded requests are served locally (the
// loop guard), owned keys are served locally, everything else is
// forwarded one hop to the owner.
func (s *server) clustered(kf keyFunc, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.cluster
		if c == nil {
			h(w, r)
			return
		}
		if r.Header.Get(forwardedHeader) != "" {
			w.Header().Set(shardHeader, c.cfg.name)
			h(w, r)
			return
		}
		var body []byte
		if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodDelete {
			var err error
			body, err = io.ReadAll(r.Body)
			if err != nil {
				// The MaxBytesReader cap maps to 413 exactly as it would have
				// inside the handler's decode.
				writeDecodeErr(w, err)
				return
			}
		}
		key, rewritten, ok := kf(r, body)
		if rewritten != nil {
			body = rewritten
		}
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		if !ok {
			// Unplaceable request (unparseable body): the local handler
			// produces the same 4xx any shard would.
			w.Header().Set(shardHeader, c.cfg.name)
			h(w, r)
			return
		}
		owner, found := c.owner(key)
		if !found || owner.Name == c.cfg.name {
			w.Header().Set(shardHeader, c.cfg.name)
			h(w, r)
			return
		}
		c.forward(w, r, owner, body)
	}
}

// forward relays r to its owning shard, stamping the loop guard, and
// copies the reply back verbatim. Transport failure is 502 — the client
// retries and may land on a healthier view.
func (c *clusterNode) forward(w http.ResponseWriter, r *http.Request, owner cluster.Member, body []byte) {
	c.forwards.Inc()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.Addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		c.forwardErrs.Inc()
		writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("forward to %s: %v", owner.Name, err)})
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedHeader, c.cfg.name)
	resp, err := c.client.Do(req)
	if err != nil {
		c.forwardErrs.Inc()
		writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("forward to %s: %v", owner.Name, err)})
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(shardHeader, owner.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// registerMetrics exports the adhoc_cluster_* family.
func (c *clusterNode) registerMetrics(o *obs.Registry) error {
	return o.Register(
		c.forwards, c.forwardErrs, c.migrationsOut, c.migrationsIn, c.migrationErrs, c.ringChanges,
		obs.NewGaugeFunc("adhoc_cluster_members",
			"Alive members on this shard's ring.", nil,
			func() float64 { return float64(c.ring.Load().Len()) }),
		obs.NewGaugeFunc("adhoc_cluster_ring_version",
			"Low 32 bits of the ring's content hash; equal across shards iff their views have converged.", nil,
			func() float64 { return float64(c.ring.Load().Version() & 0xffffffff) }),
		obs.NewCounterFunc("adhoc_cluster_gossip_ticks_total",
			"Gossip protocol rounds run.", nil,
			func() float64 { return float64(c.gossip.Stats().Ticks) }),
		obs.NewCounterFunc("adhoc_cluster_gossip_exchanges_total",
			"Gossip exchanges attempted (push-pull messages sent).", nil,
			func() float64 { return float64(c.gossip.Stats().Exchanges) }),
		obs.NewCounterFunc("adhoc_cluster_gossip_failures_total",
			"Gossip exchanges that failed in transport (peer silence feeds the failure detector instead).", nil,
			func() float64 { return float64(c.gossip.Stats().Failures) }),
	)
}

// RunCluster starts the gossip loop; serve() calls it with the base URL
// of the bound listener once the port is known. No-op without -cluster.
func (s *server) RunCluster(boundAddr string, stop <-chan struct{}) {
	if s.cluster == nil {
		return
	}
	s.cluster.run(boundAddr, stop)
}

// advertiseURL derives a dialable base URL from a bound listener address:
// an unspecified host (":8080" binds "[::]") becomes 127.0.0.1, which is
// right for single-host clusters (CI, tests); multi-host deployments set
// -cluster-advertise explicitly.
func advertiseURL(bound net.Addr) string {
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "http://" + bound.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
