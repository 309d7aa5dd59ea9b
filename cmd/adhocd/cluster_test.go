package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/registry"
)

// testClusterKey is the shared resume-token HMAC key every shard (and the
// single reference server) signs with in these tests — the cluster-mode
// analog of -token-key pointing at one key file.
var testClusterKey = bytes.Repeat([]byte{0x42}, 32)

// clusterShard is one in-process adhocd shard: the server value (package
// main, so tests reach the cluster internals directly) plus its listener.
type clusterShard struct {
	name string
	srv  *server
	ts   *httptest.Server
}

// clusterHarness is an in-process N-shard cluster over httptest listeners.
// Membership is converged deterministically by direct view exchange, not
// timers, so tests never sleep.
type clusterHarness struct {
	shards []*clusterShard
}

func testClusterEngine(t *testing.T) *engine.Engine {
	t.Helper()
	g, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Compile(g, engine.Config{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestCluster boots n shards with identical boot engines and the shared
// token key, wires their advertised addresses, and converges membership.
func newTestCluster(t *testing.T, n int) *clusterHarness {
	t.Helper()
	return newTestClusterWith(t, n, serverConfig{})
}

// newTestClusterWith is newTestCluster with cfg as every shard's serving
// config (its token key and cluster settings are the harness's).
func newTestClusterWith(t *testing.T, n int, cfg serverConfig) *clusterHarness {
	t.Helper()
	h := &clusterHarness{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		cfg.tokenKey = testClusterKey
		cfg.cluster = &clusterConfig{name: name}
		srv := newServer(testClusterEngine(t), nil, "test 4x4 grid + 5-cycle", cfg)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		srv.cluster.setAdvertise(ts.URL)
		h.shards = append(h.shards, &clusterShard{name: name, srv: srv, ts: ts})
	}
	// Deterministic bootstrap: two full rounds of pairwise push-pull makes
	// every view complete regardless of exchange order.
	for round := 0; round < 2; round++ {
		for i, a := range h.shards {
			for j, b := range h.shards {
				if i == j {
					continue
				}
				a.srv.cluster.gossip.HandleExchange(b.srv.cluster.gossip.Membership().Snapshot())
			}
		}
	}
	h.assertConverged(t, n)
	for _, sh := range h.shards {
		sh.srv.cluster.started.Store(true)
	}
	return h
}

// assertConverged checks every shard sees the same ring (equal content
// hash) with want members on it.
func (h *clusterHarness) assertConverged(t *testing.T, want int) {
	t.Helper()
	v0 := h.shards[0].srv.cluster.ring.Load().Version()
	for _, sh := range h.shards {
		r := sh.srv.cluster.ring.Load()
		if r.Len() != want {
			t.Fatalf("%s: ring has %d members, want %d", sh.name, r.Len(), want)
		}
		if r.Version() != v0 {
			t.Fatalf("%s: ring version %016x != shard-0's %016x", sh.name, r.Version(), v0)
		}
	}
}

// ownerOf resolves which shard owns key on the converged ring.
func (h *clusterHarness) ownerOf(t *testing.T, key string) *clusterShard {
	t.Helper()
	m, ok := h.shards[0].srv.cluster.owner(key)
	if !ok {
		t.Fatalf("no owner for %q", key)
	}
	for _, sh := range h.shards {
		if sh.name == m.Name {
			return sh
		}
	}
	t.Fatalf("owner %q of %q is not a harness shard", m.Name, key)
	return nil
}

// doRaw issues one request and returns the status, raw body, and headers —
// raw because the differential tests compare reply bytes, not decoded
// values.
func doRaw(t *testing.T, base, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// diffStep sends the same request to the single reference server and to
// one cluster shard and requires byte-identical status and reply body.
func diffStep(t *testing.T, single *httptest.Server, sh *clusterShard, method, path, body string) []byte {
	t.Helper()
	sc, sb, _ := doRaw(t, single.URL, method, path, body)
	cc, cb, _ := doRaw(t, sh.ts.URL, method, path, body)
	if sc != cc {
		t.Fatalf("%s %s via %s: status %d (cluster) != %d (single)\ncluster: %s\nsingle:  %s",
			method, path, sh.name, cc, sc, cb, sb)
	}
	if !bytes.Equal(sb, cb) {
		t.Fatalf("%s %s via %s: reply diverged\ncluster: %s\nsingle:  %s", method, path, sh.name, cb, sb)
	}
	return cb
}

// TestClusterDifferentialVsSingle drives the same request stream through a
// 3-shard cluster (rotating the entry shard per request, so most requests
// are forwarded) and a single adhocd sharing the token key, and requires
// byte-identical verdicts, hops, certificates, and resume tokens —
// including budgeted walks whose segments enter through different shards
// than the one that minted the token.
func TestClusterDifferentialVsSingle(t *testing.T) {
	single := httptest.NewServer(newServer(testClusterEngine(t), nil, "test 4x4 grid + 5-cycle",
		serverConfig{tokenKey: testClusterKey}))
	t.Cleanup(single.Close)
	h := newTestCluster(t, 3)
	rotate := func(i int) *clusterShard { return h.shards[i%len(h.shards)] }

	// Boot-network routes are served locally by any shard; identical boot
	// engines must answer byte-identically, verdicts and certificates both.
	for i, body := range []string{
		`{"src":0,"dst":15}`,
		`{"src":3,"dst":12,"with_path":true}`,
		`{"src":0,"dst":102}`, // cross-component: certificate-backed unreachable
		`{"src":100,"dst":104}`,
	} {
		diffStep(t, single, rotate(i), "POST", "/v1/route", body)
	}
	diffStep(t, single, rotate(1), "POST", "/v1/batch", `{"pairs":[[0,15],[1,14],[2,100],[5,10]]}`)

	// Registry network: create on both sides, then route against it through
	// every shard in rotation.
	const spec = `{"kind":"grid","rows":6,"cols":7,"seed":3}`
	var sNet, cNet struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	if sc, sb, _ := doRaw(t, single.URL, "POST", "/v1/networks", spec); sc != http.StatusCreated {
		t.Fatalf("single create: %d %s", sc, sb)
	} else if err := json.Unmarshal(sb, &sNet); err != nil {
		t.Fatal(err)
	}
	if cc, cb, _ := doRaw(t, h.shards[0].ts.URL, "POST", "/v1/networks", spec); cc != http.StatusCreated {
		t.Fatalf("cluster create: %d %s", cc, cb)
	} else if err := json.Unmarshal(cb, &cNet); err != nil {
		t.Fatal(err)
	}
	if sNet.ID == "" || sNet.ID != cNet.ID || sNet.Nodes != cNet.Nodes {
		t.Fatalf("network identity diverged: single %+v, cluster %+v", sNet, cNet)
	}
	netPath := "/v1/networks/" + sNet.ID + "/route"
	for i, body := range []string{
		`{"src":0,"dst":41}`,
		`{"src":5,"dst":17,"with_path":true}`,
		`{"src":40,"dst":1}`,
		`{"src":3,"dst":3}`,
	} {
		diffStep(t, single, rotate(i), "POST", netPath, body)
	}

	// Budgeted walk over the registry network, resumed through a DIFFERENT
	// shard each segment. The shared key makes the tokens byte-identical,
	// so whole replies — token included — must match.
	resume, segs := "", 0
	for ; segs < 200; segs++ {
		body := fmt.Sprintf(`{"src":0,"dst":41,"budget_hops":4,"resume":%q}`, resume)
		rb := diffStep(t, single, rotate(segs), "POST", netPath, body)
		var rep routeReply
		if err := json.Unmarshal(rb, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status != statusBudgetExhausted {
			if rep.Status != "success" {
				t.Fatalf("budgeted walk verdict %q, want success", rep.Status)
			}
			break
		}
		resume = rep.Resume
	}
	if segs < 2 {
		t.Fatalf("budgeted walk finished in %d segments; too few to cross shards", segs)
	}

	// Shared world backed by the registry network. Create/advance replies
	// carry wall-clock compile timings, so those compare decoded fields;
	// route replies compare bytes.
	const worldBody = `{"name":"w-diff","network_id":"%s","schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":9}}`
	sc, sb, _ := doRaw(t, single.URL, "POST", "/v1/worlds", fmt.Sprintf(worldBody, sNet.ID))
	cc, cb, _ := doRaw(t, h.shards[1].ts.URL, "POST", "/v1/worlds", fmt.Sprintf(worldBody, cNet.ID))
	if sc != http.StatusCreated || cc != http.StatusCreated {
		t.Fatalf("world create: single %d %s, cluster %d %s", sc, sb, cc, cb)
	}
	var sw, cw worldInfo
	if err := json.Unmarshal(sb, &sw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cb, &cw); err != nil {
		t.Fatal(err)
	}
	if sw.ID != "w-diff" || cw.ID != sw.ID || cw.Epoch != sw.Epoch || cw.Links != sw.Links {
		t.Fatalf("world identity diverged: single %+v, cluster %+v", sw, cw)
	}

	worldPath := "/v1/worlds/w-diff"
	sc, sb, _ = doRaw(t, single.URL, "POST", worldPath+"/advance", `{"epochs":3}`)
	cc, cb, _ = doRaw(t, h.shards[2].ts.URL, "POST", worldPath+"/advance", `{"epochs":3}`)
	if sc != http.StatusOK || cc != http.StatusOK {
		t.Fatalf("world advance: single %d %s, cluster %d %s", sc, sb, cc, cb)
	}
	if err := json.Unmarshal(sb, &sw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cb, &cw); err != nil {
		t.Fatal(err)
	}
	if cw.Epoch != sw.Epoch || cw.Version != sw.Version || cw.Links != sw.Links {
		t.Fatalf("world state diverged after advance: single %+v, cluster %+v", sw, cw)
	}

	for i, body := range []string{
		`{"src":0,"dst":41,"hops_per_epoch":8}`,
		`{"src":5,"dst":30,"hops_per_epoch":8}`,
		`{"src":41,"dst":0,"hops_per_epoch":-1}`,
	} {
		diffStep(t, single, rotate(i), "POST", worldPath+"/route", body)
	}

	// Budgeted world walk, entry shard rotating — the world lives on ONE
	// owner shard, so rotation guarantees segments that enter elsewhere and
	// resume a token minted by the owner.
	resume, segs = "", 0
	for ; segs < 200; segs++ {
		body := fmt.Sprintf(`{"src":0,"dst":41,"hops_per_epoch":16,"budget_hops":3,"resume":%q}`, resume)
		rb := diffStep(t, single, rotate(segs), "POST", worldPath+"/route", body)
		var rep dynamicReply
		if err := json.Unmarshal(rb, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status != statusBudgetExhausted {
			if rep.Status != "success" {
				t.Fatalf("budgeted world walk verdict %q, want success", rep.Status)
			}
			break
		}
		resume = rep.Resume
	}
	if segs < 2 {
		t.Fatalf("budgeted world walk finished in %d segments; too few to cross shards", segs)
	}

	// The stream above must actually have exercised the proxy tier.
	var forwards int64
	for _, sh := range h.shards {
		forwards += sh.srv.cluster.forwards.Value()
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded; differential never crossed a shard boundary")
	}
}

// TestClusterForwardingAndLoopGuard pins the proxy-tier mechanics: a
// misrouted request is forwarded one hop and stamped with the serving
// shard's name, while a request already carrying the forwarded header is
// served locally no matter what the ring says.
func TestClusterForwardingAndLoopGuard(t *testing.T) {
	h := newTestCluster(t, 3)
	const spec = `{"kind":"cycle","n":30,"seed":11}`
	cc, cb, _ := doRaw(t, h.shards[0].ts.URL, "POST", "/v1/networks", spec)
	if cc != http.StatusCreated {
		t.Fatalf("create: %d %s", cc, cb)
	}
	var net struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cb, &net); err != nil {
		t.Fatal(err)
	}
	owner := h.ownerOf(t, "net:"+net.ID)
	if ent, ok := owner.srv.reg.Get(net.ID); !ok || ent == nil {
		t.Fatalf("network %s not resident on its owner %s", net.ID, owner.name)
	}
	var nonOwner *clusterShard
	for _, sh := range h.shards {
		if sh != owner {
			nonOwner = sh
			break
		}
	}

	// Misrouted GET is forwarded: the reply is served by the owner.
	_, _, hdr := doRaw(t, nonOwner.ts.URL, "GET", "/v1/networks/"+net.ID, "")
	if got := hdr.Get(shardHeader); got != owner.name {
		t.Fatalf("forwarded GET served by %q, want owner %q", got, owner.name)
	}
	status, _, _ := doRaw(t, nonOwner.ts.URL, "GET", "/v1/networks/"+net.ID, "")
	if status != http.StatusOK {
		t.Fatalf("forwarded GET status %d", status)
	}

	// Same request with the loop guard set: served locally by the
	// non-owner, which does not have the network resident — 404, and the
	// shard header names the non-owner. One hop, never two.
	req, err := http.NewRequest("GET", nonOwner.ts.URL+"/v1/networks/"+net.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("loop-guarded GET on non-owner: %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(shardHeader); got != nonOwner.name {
		t.Fatalf("loop-guarded GET served by %q, want local %q", got, nonOwner.name)
	}

	// GET /v1/cluster: every shard reports the same ring version.
	var first string
	for _, sh := range h.shards {
		status, body, _ := doRaw(t, sh.ts.URL, "GET", "/v1/cluster", "")
		if status != http.StatusOK {
			t.Fatalf("GET /v1/cluster on %s: %d", sh.name, status)
		}
		var info struct {
			Self        string `json:"self"`
			RingVersion string `json:"ring_version"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Self != sh.name {
			t.Fatalf("cluster info self %q, want %q", info.Self, sh.name)
		}
		if first == "" {
			first = info.RingVersion
		} else if info.RingVersion != first {
			t.Fatalf("%s ring_version %s != %s", sh.name, info.RingVersion, first)
		}
	}
}

// TestClusterDrainMigratesWorldAndResumesElsewhere is the drain/rebalance
// path end to end: a budgeted walk is started on a world, its owner shard
// drains (broadcasting departure and handing the world off by replay), and
// the walk's resume token — minted by the drained shard — is redeemed
// through a surviving shard against the migrated world.
func TestClusterDrainMigratesWorldAndResumesElsewhere(t *testing.T) {
	h := newTestCluster(t, 3)
	const spec = `{"kind":"grid","rows":6,"cols":6,"seed":5}`
	cc, cb, _ := doRaw(t, h.shards[0].ts.URL, "POST", "/v1/networks", spec)
	if cc != http.StatusCreated {
		t.Fatalf("create network: %d %s", cc, cb)
	}
	var net struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cb, &net); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"name":"w-mig","network_id":%q,"schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":13}}`, net.ID)
	if cc, cb, _ = doRaw(t, h.shards[1].ts.URL, "POST", "/v1/worlds", body); cc != http.StatusCreated {
		t.Fatalf("create world: %d %s", cc, cb)
	}
	owner := h.ownerOf(t, "world:w-mig")
	if _, ok := owner.srv.worlds.Get("w-mig"); !ok {
		t.Fatalf("world not resident on its owner %s", owner.name)
	}

	// Pre-evolve, then start a budgeted walk through a non-owner entry
	// shard until it exhausts and mints a token.
	var entry *clusterShard
	for _, sh := range h.shards {
		if sh != owner {
			entry = sh
			break
		}
	}
	if cc, cb, _ = doRaw(t, entry.ts.URL, "POST", "/v1/worlds/w-mig/advance", `{"epochs":4}`); cc != http.StatusOK {
		t.Fatalf("advance: %d %s", cc, cb)
	}
	var rep dynamicReply
	cc, cb, _ = doRaw(t, entry.ts.URL, "POST", "/v1/worlds/w-mig/route",
		`{"src":0,"dst":35,"hops_per_epoch":16,"budget_hops":2}`)
	if cc != http.StatusOK {
		t.Fatalf("budgeted route: %d %s", cc, cb)
	}
	if err := json.Unmarshal(cb, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != statusBudgetExhausted || rep.Resume == "" {
		t.Fatalf("budgeted route: %+v, want exhausted with token", rep)
	}
	preEpoch := owner.srv.worlds.List()[0].W.Snapshot().Epoch

	// Drain the owner. BeginDrain broadcasts departure and synchronously
	// rebalances, so by return the world must live elsewhere.
	owner.srv.BeginDrain()
	if n := owner.srv.worlds.Len(); n != 0 {
		t.Fatalf("drained shard still holds %d worlds", n)
	}
	survivors := make([]*clusterShard, 0, 2)
	for _, sh := range h.shards {
		if sh != owner {
			survivors = append(survivors, sh)
		}
	}
	v0 := survivors[0].srv.cluster.ring.Load()
	v1 := survivors[1].srv.cluster.ring.Load()
	if v0.Len() != 2 || v0.Version() != v1.Version() {
		t.Fatalf("survivors did not converge after drain: %d members, versions %016x vs %016x",
			v0.Len(), v0.Version(), v1.Version())
	}
	var newOwner *clusterShard
	for _, sh := range survivors {
		if _, ok := sh.srv.worlds.Get("w-mig"); ok {
			newOwner = sh
		}
	}
	if newOwner == nil {
		t.Fatal("world w-mig resident on no survivor after drain")
	}
	if got := newOwner.srv.worlds.List()[0].W.Snapshot().Epoch; got < preEpoch {
		t.Fatalf("migrated world at epoch %d, want >= %d (replay fell short)", got, preEpoch)
	}

	// Redeem the drained shard's token through the OTHER survivor, so the
	// resume is both cross-shard-minted and cross-shard-entered.
	entry = survivors[0]
	if entry == newOwner {
		entry = survivors[1]
	}
	resume := rep.Resume
	for seg := 0; ; seg++ {
		if seg >= 200 {
			t.Fatal("resumed walk never reached a verdict")
		}
		body := fmt.Sprintf(`{"src":0,"dst":35,"hops_per_epoch":16,"budget_hops":8,"resume":%q}`, resume)
		cc, cb, _ = doRaw(t, entry.ts.URL, "POST", "/v1/worlds/w-mig/route", body)
		if cc != http.StatusOK {
			t.Fatalf("resumed segment %d: %d %s", seg, cc, cb)
		}
		if err := json.Unmarshal(cb, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Status != statusBudgetExhausted {
			if rep.Status != "success" {
				t.Fatalf("resumed walk verdict %q, want success", rep.Status)
			}
			if rep.Resumptions == 0 {
				t.Fatalf("verdict reports zero resumptions: %+v", rep)
			}
			break
		}
		resume = rep.Resume
	}
}

// TestClusterDrainReplaysWorldOfEvictedNetwork: a world keeps the spec of
// the network it was seeded from, so a drain hands it off even after the
// registry LRU has evicted that network from the world's owner.
func TestClusterDrainReplaysWorldOfEvictedNetwork(t *testing.T) {
	h := newTestClusterWith(t, 2, serverConfig{registry: registry.Config{Capacity: 1}})
	owner := h.ownerOf(t, "world:w-evict")
	survivor := h.shards[0]
	if survivor == owner {
		survivor = h.shards[1]
	}
	cc, cb, _ := doRaw(t, owner.ts.URL, "POST", "/v1/networks", `{"kind":"grid","rows":6,"cols":6,"seed":5}`)
	if cc != http.StatusCreated {
		t.Fatalf("create network: %d %s", cc, cb)
	}
	var net struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cb, &net); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"name":"w-evict","network_id":%q,"schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":13}}`, net.ID)
	if cc, cb, _ = doRaw(t, owner.ts.URL, "POST", "/v1/worlds", body); cc != http.StatusCreated {
		t.Fatalf("create world: %d %s", cc, cb)
	}
	if cc, cb, _ = doRaw(t, owner.ts.URL, "POST", "/v1/worlds/w-evict/advance", `{"epochs":6}`); cc != http.StatusOK {
		t.Fatalf("advance: %d %s", cc, cb)
	}
	orig, ok := owner.srv.worlds.Get("w-evict")
	if !ok {
		t.Fatalf("world not resident on its owner %s", owner.name)
	}

	// Compiling another network evicts the world's network from the owner.
	if _, _, err := owner.srv.reg.Obtain(registry.Spec{Kind: "grid", Rows: 5, Cols: 5, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for _, ent := range owner.srv.reg.List() {
		if ent.ID == net.ID {
			t.Fatalf("network %s still resident on %s", net.ID, owner.name)
		}
	}

	owner.srv.BeginDrain()
	if n := owner.srv.cluster.migrationErrs.Value(); n != 0 {
		t.Fatalf("drain counted %d migration errors", n)
	}
	if n := owner.srv.worlds.Len(); n != 0 {
		t.Fatalf("drained shard still holds %d worlds", n)
	}
	moved, ok := survivor.srv.worlds.Get("w-evict")
	if !ok {
		t.Fatal("world w-evict resident on no survivor after drain")
	}
	var a, b bytes.Buffer
	if err := orig.W.Graph().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := moved.W.Graph().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if moved.W.Epoch() != orig.W.Epoch() || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("replayed world at epoch %d differs from the original at epoch %d", moved.W.Epoch(), orig.W.Epoch())
	}
	var info worldInfo
	if cc, cb, _ = doRaw(t, survivor.ts.URL, "GET", "/v1/worlds/w-evict", ""); cc != http.StatusOK {
		t.Fatalf("world info on the survivor: %d %s", cc, cb)
	}
	if err := json.Unmarshal(cb, &info); err != nil {
		t.Fatal(err)
	}
	if info.NetworkID != net.ID || info.Desc != "markov" {
		t.Fatalf("migrated world info: %+v", info)
	}
}

// TestClusterDrainPastWorldLimit: a drain hands a world to a new owner
// that is already at its -max-worlds bound, because the bound limits what
// clients create, not the worlds the cluster holds; a client create at the
// bound is still refused, and the migration endpoint stops at the bound
// once per shard the owner has known, so a direct POST to it past that
// ceiling is refused too.
func TestClusterDrainPastWorldLimit(t *testing.T) {
	h := newTestClusterWith(t, 2, serverConfig{maxWorlds: 1})
	names := map[*clusterShard]string{}
	for i := 0; len(names) < 2; i++ {
		if i == 64 {
			t.Fatal("no world name placed on each shard")
		}
		name := fmt.Sprintf("w-full-%d", i)
		if owner := h.ownerOf(t, "world:"+name); names[owner] == "" {
			names[owner] = name
		}
	}
	epochs := map[string]int{}
	for i, sh := range h.shards {
		name := names[sh]
		body := fmt.Sprintf(`{"name":%q,"schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":13}}`, name)
		if cc, cb, _ := doRaw(t, sh.ts.URL, "POST", "/v1/worlds", body); cc != http.StatusCreated {
			t.Fatalf("create world %s: %d %s", name, cc, cb)
		}
		epochs[name] = 3 + i
		adv := fmt.Sprintf(`{"epochs":%d}`, epochs[name])
		if cc, cb, _ := doRaw(t, sh.ts.URL, "POST", "/v1/worlds/"+name+"/advance", adv); cc != http.StatusOK {
			t.Fatalf("advance %s: %d %s", name, cc, cb)
		}
	}

	drained, survivor := h.shards[0], h.shards[1]
	drained.srv.BeginDrain()
	if n := drained.srv.cluster.migrationErrs.Value(); n != 0 {
		t.Fatalf("drain counted %d migration errors", n)
	}
	if n := drained.srv.worlds.Len(); n != 0 {
		t.Fatalf("drained shard still holds %d worlds", n)
	}
	for _, name := range names {
		cc, cb, _ := doRaw(t, survivor.ts.URL, "GET", "/v1/worlds/"+name, "")
		if cc != http.StatusOK {
			t.Fatalf("world %s on the survivor: %d %s", name, cc, cb)
		}
		var info worldInfo
		if err := json.Unmarshal(cb, &info); err != nil {
			t.Fatal(err)
		}
		if info.Epoch != epochs[name] {
			t.Fatalf("world %s on the survivor at epoch %d, want %d", name, info.Epoch, epochs[name])
		}
	}
	if cc, cb, _ := doRaw(t, survivor.ts.URL, "POST", "/v1/worlds", `{"name":"w-more"}`); cc != http.StatusTooManyRequests {
		t.Fatalf("client create past the bound after the drain: %d %s, want 429", cc, cb)
	}
	// The survivor has known two shards, so two worlds is its ceiling.
	if cc, cb, _ := doRaw(t, survivor.ts.URL, "POST", migratePath, `{"name":"w-more","schedule":{"kind":"static"}}`); cc != http.StatusTooManyRequests {
		t.Fatalf("migration past the ceiling: %d %s, want 429", cc, cb)
	}
	if cc, cb, _ := doRaw(t, survivor.ts.URL, "POST", migratePath, `{"schedule":{"kind":"static"}}`); cc != http.StatusBadRequest {
		t.Fatalf("nameless migration: %d %s, want 400", cc, cb)
	}
	if n := survivor.srv.worlds.Len(); n != 2 {
		t.Fatalf("survivor holds %d worlds, want 2", n)
	}
}

// TestClusterRefusesUnreplayableWorld: a cluster refuses a world whose
// schedule does not replay ("adversary" follows the walks in flight), on
// create through any shard and on migration, because it could not move
// between shards; a single server still creates it.
func TestClusterRefusesUnreplayableWorld(t *testing.T) {
	const body = `{"name":"w-adv","schedule":{"kind":"adversary"}}`
	h := newTestCluster(t, 2)
	for _, sh := range h.shards {
		if cc, cb, _ := doRaw(t, sh.ts.URL, "POST", "/v1/worlds", body); cc != http.StatusBadRequest || !strings.Contains(string(cb), "does not replay") {
			t.Fatalf("clustered adversary world via %s: %d %s, want 400", sh.name, cc, cb)
		}
	}
	owner := h.ownerOf(t, "world:w-adv")
	if cc, cb, _ := doRaw(t, owner.ts.URL, "POST", migratePath, `{"name":"w-adv","schedule":{"kind":"adversary"},"epochs":3}`); cc != http.StatusBadRequest {
		t.Fatalf("adversary world migration: %d %s, want 400", cc, cb)
	}
	for _, sh := range h.shards {
		if n := sh.srv.worlds.Len(); n != 0 {
			t.Fatalf("%s holds %d worlds", sh.name, n)
		}
	}

	single := httptest.NewServer(newServer(testClusterEngine(t), nil, "single", serverConfig{tokenKey: testClusterKey}))
	t.Cleanup(single.Close)
	if cc, cb, _ := doRaw(t, single.URL, "POST", "/v1/worlds", body); cc != http.StatusCreated {
		t.Fatalf("single-server adversary world: %d %s, want 201", cc, cb)
	}
}

// TestClusterGossipOverHTTPAndKill exercises the real wire path — gossip
// over POST /v1/cluster/gossip between live listeners, seeded bootstrap —
// then kills a shard's listener and requires the survivors' failure
// detectors to converge on its death within the documented tick bound.
func TestClusterGossipOverHTTPAndKill(t *testing.T) {
	// Built by hand (not newTestCluster): bootstrap must flow through the
	// seed URLs and HTTP transport, not direct view exchange.
	mk := func(name string, peers []string) *clusterShard {
		srv := newServer(testClusterEngine(t), nil, "test 4x4 grid + 5-cycle", serverConfig{
			tokenKey: testClusterKey,
			cluster:  &clusterConfig{name: name, peers: peers},
		})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		srv.cluster.setAdvertise(ts.URL)
		srv.cluster.started.Store(true)
		return &clusterShard{name: name, srv: srv, ts: ts}
	}
	s0 := mk("shard-0", nil)
	s1 := mk("shard-1", []string{s0.ts.URL})
	s2 := mk("shard-2", []string{s0.ts.URL})
	all := []*clusterShard{s0, s1, s2}

	ctx := context.Background()
	tick := func(shards []*clusterShard) {
		for _, sh := range shards {
			sh.srv.cluster.gossip.Tick(ctx)
		}
	}
	converged := func(shards []*clusterShard, members int) bool {
		v := shards[0].srv.cluster.ring.Load().Version()
		for _, sh := range shards {
			r := sh.srv.cluster.ring.Load()
			if r.Len() != members || r.Version() != v {
				return false
			}
		}
		return true
	}

	const bootstrapBound = 20
	ok := false
	for i := 0; i < bootstrapBound; i++ {
		tick(all)
		if converged(all, 3) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("cluster did not bootstrap over HTTP within %d ticks", bootstrapBound)
	}

	// Kill shard-2's listener. No goodbye: the survivors must notice via
	// heartbeat silence alone.
	s2.ts.Close()
	survivors := []*clusterShard{s0, s1}
	bound := cluster.DefaultSuspectAfterTicks + cluster.DefaultDeadAfterTicks + 10
	ok = false
	for i := 0; i < bound; i++ {
		tick(survivors)
		if converged(survivors, 2) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("survivors did not converge on the kill within %d ticks", bound)
	}
	for _, sh := range survivors {
		for _, m := range sh.srv.cluster.ring.Load().Members() {
			if m.Name == "shard-2" {
				t.Fatalf("%s still has shard-2 on its ring", sh.name)
			}
		}
	}

	// The two-shard cluster still serves: create a network and route it
	// through both survivors.
	cc, cb, _ := doRaw(t, s0.ts.URL, "POST", "/v1/networks", `{"kind":"grid","rows":5,"cols":5,"seed":2}`)
	if cc != http.StatusCreated {
		t.Fatalf("post-kill create: %d %s", cc, cb)
	}
	var net struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cb, &net); err != nil {
		t.Fatal(err)
	}
	for _, sh := range survivors {
		status, body, _ := doRaw(t, sh.ts.URL, "POST", "/v1/networks/"+net.ID+"/route", `{"src":0,"dst":24}`)
		if status != http.StatusOK {
			t.Fatalf("post-kill route via %s: %d %s", sh.name, status, body)
		}
	}
}

// TestClusterSharedKeyAndRotationHTTP is the -token-key contract at the
// HTTP level: a resume token minted on shard A validates on shard B
// sharing the key, and the same token presented to a server holding a
// rotated key fails closed with 400 — never a panic, never acceptance.
func TestClusterSharedKeyAndRotationHTTP(t *testing.T) {
	mk := func(key []byte) *httptest.Server {
		ts := httptest.NewServer(newServer(testClusterEngine(t), nil, "test 4x4 grid + 5-cycle",
			serverConfig{tokenKey: key}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mk(testClusterKey), mk(testClusterKey)
	rotated := mk(bytes.Repeat([]byte{0x99}, 32))

	cc, cb, _ := doRaw(t, a.URL, "POST", "/v1/route", `{"src":0,"dst":15,"budget_hops":2}`)
	if cc != http.StatusOK {
		t.Fatalf("budgeted route on A: %d %s", cc, cb)
	}
	var rep routeReply
	if err := json.Unmarshal(cb, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != statusBudgetExhausted || rep.Resume == "" {
		t.Fatalf("budgeted route on A: %+v, want exhausted with token", rep)
	}

	resumeBody := fmt.Sprintf(`{"src":0,"dst":15,"resume":%q}`, rep.Resume)
	if status, body, _ := doRaw(t, b.URL, "POST", "/v1/route", resumeBody); status != http.StatusOK {
		t.Fatalf("A-minted token on B (shared key): %d %s, want 200", status, body)
	}
	status, body, _ := doRaw(t, rotated.URL, "POST", "/v1/route", resumeBody)
	if status != http.StatusBadRequest {
		t.Fatalf("A-minted token on rotated-key server: %d %s, want 400", status, body)
	}
	if !strings.Contains(string(body), "resume") {
		t.Fatalf("rotated-key rejection did not mention the resume token: %s", body)
	}
}
