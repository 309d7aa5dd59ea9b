package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/registry"
)

// worldCreateRequest names a long-lived shared world: the network it is
// seeded from (the boot network unless network_id names a registry
// entry), the schedule that evolves it, and an optional client-chosen
// name.
type worldCreateRequest struct {
	Name      string       `json:"name,omitempty"`
	NetworkID string       `json:"network_id,omitempty"`
	Schedule  dynamic.Spec `json:"schedule"`
}

// worldInfo describes one shared world's instantaneous state. It shares
// the shape contract with networkInfo (pinned by TestInfoShapeContract):
// nodes, links, and compile_ms always present — compile_ms is the seed
// engine's one-off compile, recompile_ms the cumulative churn-forced
// rebuild time this world has paid since.
type worldInfo struct {
	ID              string  `json:"id"`
	NetworkID       string  `json:"network_id,omitempty"`
	Desc            string  `json:"desc"`
	Epoch           int     `json:"epoch"`
	Version         uint64  `json:"version"`
	Nodes           int     `json:"nodes"`
	Links           int     `json:"links"`
	Recompiles      int64   `json:"recompiles"`
	DeltaRecompiles int64   `json:"delta_recompiles"`
	FullRecompiles  int64   `json:"full_recompiles"`
	CacheHits       int64   `json:"compile_cache_hits"`
	CompileMS       float64 `json:"compile_ms"`
	RecompileMS     float64 `json:"recompile_ms"`
	DeltaMS         float64 `json:"delta_recompile_ms"`
	FullMS          float64 `json:"full_recompile_ms"`
}

func worldInfoOf(ent *registry.WorldEntry) worldInfo {
	// One atomic world snapshot: racing an advance must not pair one
	// epoch's clock with another epoch's link count.
	snap := ent.W.Snapshot()
	netID, desc := "", ent.Schedule.Kind
	if ent.Network != nil {
		netID = ent.Network.ID()
	}
	if desc == "" {
		desc = "static"
	}
	return worldInfo{
		ID:              ent.ID,
		NetworkID:       netID,
		Desc:            desc,
		Epoch:           snap.Epoch,
		Version:         snap.Version,
		Nodes:           snap.Nodes,
		Links:           snap.Links,
		Recompiles:      snap.Recompiles,
		DeltaRecompiles: snap.DeltaRecompiles,
		FullRecompiles:  snap.FullRecompiles,
		CacheHits:       snap.CacheHits,
		CompileMS:       float64(ent.Eng.CompileDuration()) / float64(time.Millisecond),
		RecompileMS:     float64(snap.RecompileTime) / float64(time.Millisecond),
		DeltaMS:         float64(snap.DeltaRecompileTime) / float64(time.Millisecond),
		FullMS:          float64(snap.FullRecompileTime) / float64(time.Millisecond),
	}
}

// handleWorldCreate builds a world over a private clone of the named
// network's topology (seeded with its compiled artifacts) and registers
// it for shared use. Creation is cheap — the first route pays any
// recompile the schedule forces.
func (s *server) handleWorldCreate(w http.ResponseWriter, r *http.Request) {
	var req worldCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var net *registry.Entry
	if req.NetworkID != "" {
		var ok bool
		net, ok = s.reg.Get(req.NetworkID)
		if !ok && s.cluster != nil {
			// The world hashed here but its backing network hashed to another
			// shard: pull the spec from the network's owner and compile it
			// locally (same spec → same engine).
			net, ok = s.cluster.fetchNetwork(r.Context(), req.NetworkID)
		}
		if !ok {
			writeJSON(w, http.StatusNotFound,
				errorBody{Error: fmt.Sprintf("unknown network %q (re-register via POST /v1/networks)", req.NetworkID)})
			return
		}
	}
	if ent, ok := s.buildWorld(w, req.Name, net, req.Schedule, 0, 1); ok {
		writeJSON(w, http.StatusCreated, worldInfoOf(ent))
	}
}

// buildWorld builds a world from its replay tuple — the network it is
// seeded from (nil = the boot network), its schedule, and how many epochs
// it has run — and registers it under name once it has caught up, so no
// request sees it mid-replay. Every named world is built here: created
// (0 epochs) or migrated from another shard. The table admits it while it
// holds fewer than -max-worlds worlds for each of shards (see
// registry.Worlds.Create). It answers the error itself when it fails. In
// cluster mode it refuses a schedule that does not replay, since such a
// world could not move to another shard.
func (s *server) buildWorld(w http.ResponseWriter, name string, net *registry.Entry, spec dynamic.Spec, epochs, shards int) (*registry.WorldEntry, bool) {
	sched, err := spec.Build()
	if err == nil && s.cluster != nil && !spec.Replays() {
		err = fmt.Errorf("schedule %q does not replay (its epochs follow the walks in flight), so a cluster cannot move its world between shards", spec.Kind)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return nil, false
	}
	// Refuse doomed creates (bad name, duplicate, table full) before
	// paying for the world clone; the Create below re-checks
	// authoritatively.
	if err := s.worlds.Precheck(name, shards); err != nil {
		writeWorldCreateErr(w, err)
		return nil, false
	}
	eng, pos := s.eng, s.pos
	var netSpec *registry.Spec
	if net != nil {
		eng, pos, netSpec = net.Eng, net.Pos, &net.Spec
	}
	world := s.newWorld(eng, pos, sched)
	for range epochs {
		if err := world.Advance(dynamic.Probe{}); err != nil {
			writeErr(w, err)
			return nil, false
		}
	}
	ent, err := s.worlds.Create(name, &registry.WorldEntry{Network: netSpec, Schedule: spec, Eng: eng, W: world}, shards)
	if err != nil {
		writeWorldCreateErr(w, err)
		return nil, false
	}
	return ent, true
}

// newWorld clones eng's network into a world evolving under sched, its
// mobility starting from pos (nil = no placement) and its faults drawn
// from the server's injector.
func (s *server) newWorld(eng *engine.Engine, pos map[graph.NodeID]geom.Point, sched dynamic.Schedule) *dynamic.World {
	world := eng.NewWorld(sched)
	if pos != nil {
		world.SetPositions(pos)
	}
	world.SetChaos(s.chaos)
	return world
}

// writeWorldCreateErr maps world admission errors onto HTTP statuses.
func writeWorldCreateErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, registry.ErrWorldCapacity):
		status = http.StatusTooManyRequests
	case errors.Is(err, registry.ErrWorldExists):
		status = http.StatusConflict
	case errors.Is(err, registry.ErrBadWorldName):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *server) handleWorldList(w http.ResponseWriter, _ *http.Request) {
	ents := s.worlds.List()
	infos := make([]worldInfo, len(ents))
	for i, ent := range ents {
		infos[i] = worldInfoOf(ent)
	}
	writeJSON(w, http.StatusOK, struct {
		Worlds []worldInfo `json:"worlds"`
	}{infos})
}

// worldFor resolves the {id} path segment, answering 404 itself when the
// world does not exist.
func (s *server) worldFor(w http.ResponseWriter, r *http.Request) (*registry.WorldEntry, bool) {
	id := r.PathValue("id")
	ent, ok := s.worlds.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown world %q", id)})
		return nil, false
	}
	return ent, true
}

func (s *server) handleWorldInfo(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.worldFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, worldInfoOf(ent))
}

func (s *server) handleWorldDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.worlds.Delete(id) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown world %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

// worldAdvanceRequest ticks the world's epoch clock without routing —
// pre-evolving a scenario before queries, or driving topology time from
// an external clock.
type worldAdvanceRequest struct {
	Epochs int `json:"epochs,omitempty"`
}

func (s *server) handleWorldAdvance(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.worldFor(w, r)
	if !ok {
		return
	}
	var req worldAdvanceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	n := req.Epochs
	if n <= 0 {
		n = 1
	}
	// Each epoch may force a recompile, so the per-request count is capped
	// like every other cost knob.
	if n > maxWorldAdvance {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("epochs %d exceeds server limit %d", n, maxWorldAdvance)})
		return
	}
	for i := 0; i < n; i++ {
		if err := ent.W.Advance(dynamic.Probe{}); err != nil {
			writeErr(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, worldInfoOf(ent))
}

// worldRouteRequest is one s→t query over a shared world. hops_per_epoch
// couples this walk's hops to the shared epoch clock; negative freezes
// the clock for this query (the world still evolves under other traffic
// and explicit advances). budget_hops / deadline_ms bound the walk's work,
// and resume continues an earlier exhausted walk from its token — the
// token is bound to this world, and a resumed walk survives the world
// having recompiled (epoch churn) since the cursor was minted.
type worldRouteRequest struct {
	Src          int64  `json:"src"`
	Dst          int64  `json:"dst"`
	HopsPerEpoch int    `json:"hops_per_epoch,omitempty"`
	MaxRounds    int    `json:"max_rounds,omitempty"`
	BudgetHops   int64  `json:"budget_hops,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
	Resume       string `json:"resume,omitempty"`
}

func (s *server) handleWorldRoute(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.worldFor(w, r)
	if !ok {
		return
	}
	var req worldRouteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if msg := budgetError(req.BudgetHops, req.DeadlineMS); msg != "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: msg})
		return
	}
	ent.Routes.Add(1)
	src, dst := graph.NodeID(req.Src), graph.NodeID(req.Dst)
	cfg := clampDynamics(req.HopsPerEpoch, req.MaxRounds)
	scope := "world:" + ent.ID
	cur, ok := s.verifyResume(w, scope, req.Resume)
	if !ok {
		return
	}
	bounded := req.BudgetHops > 0 || req.DeadlineMS > 0 || req.Resume != ""
	ctx, cancel := s.walkCtx(r, bounded, req.DeadlineMS)
	defer cancel()
	res, err := ent.Eng.RouteDynamicBudgeted(ctx, ent.W, src, dst, req.BudgetHops, cur, cfg)
	if err != nil {
		writeErr(w, err)
		return
	}
	reply := dynamicReplyOf(req.Src, req.Dst, res, ent.W)
	if res.Exhausted != "" {
		tok, err := s.tok.Sign(scope, res.Cursor)
		if err != nil {
			writeErr(w, err)
			return
		}
		reply.Status = statusBudgetExhausted
		reply.Exhausted = string(res.Exhausted)
		reply.Resume = tok
		s.logDrainCursor(scope, req.Src, req.Dst, tok)
	}
	writeJSON(w, http.StatusOK, reply)
}
