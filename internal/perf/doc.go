// Package perf is the repository's benchmark: five closed-loop workloads
// driven against freshly booted adhocd daemons, seven end-to-end metrics
// whose every verdict is checked against an oracle, and a per-layer ladder
// that times each module's public functions on the same queries.
//
// # Running it
//
// From the repository root:
//
//	bash cmd/perfladder/run.sh -seed 1                  # every workload, traced
//	bash cmd/perfladder/run.sh -workload route_long -trace 0 -seconds 15
//	bash cmd/perfladder/run.sh -sets 2 -json sets.json  # spreads next to bounds
//	bash cmd/perfladder/run.sh -compare parent.json change.json
//
// run.sh builds cmd/perfladder (a module of its own) with every Go cache
// under .bench_build, then perfladder builds cmd/adhocd there once.
// go run -C cmd/perfladder . takes the same flags with the default caches.
// A run prints each metric by name with its unit and sample count, and as
// its last line one JSON object: correct, attempted, failed, and the
// bounded end-to-end metrics (-trace 0) or every per-layer metric
// (-trace 1). It exits 1 when any verdict disagrees with its oracle or any
// ladder rung fails to reproduce the daemon's reply. -json writes every
// run; -spans writes the ladder's spans.
//
// # Load model
//
// Each run boots the daemon nine times with production defaults and
// -addr 127.0.0.1:0 (the port comes from its "listening on" line); setup_s
// is the median time from exec until /healthz answers 200 and the
// workload's setup is done. A start takes milliseconds, so a single one is
// mostly scheduling noise. The last daemon then serves a closed loop of
// two keep-alive connections, one goroutine each, for a 2 s unmeasured
// warm-up and a measured window (15 s by default, BENCHMARK.json's
// run_seconds). No request carries a traceparent, so the daemon's own
// sampling decides tracing. The loop is closed because route callers wait
// for their verdict, and because on a shared 2-vCPU machine a sleep-paced
// open loop overshoots by about a millisecond, which would swamp requests
// that take microseconds. The seed derives every pair, spec and schedule;
// the daemon receives only the generated requests.
//
// # Workloads
//
//   - route_short: 8x8 grid, uniform pairs on POST /v1/route. The walk is
//     a small share of a request, so serving changes show here and walk
//     changes should not.
//   - route_long: unit-disk graph of 1024 nodes (radius 0.06, generator
//     seed 1), uniform pairs. The §3 doubling walk and its §4 closure walks
//     dominate. One node is isolated, so about 0.2% of pairs cross
//     components and get O(1) certificates.
//     Walk and doubling-loop changes show here; serving changes should stay
//     in the noise.
//   - route_resume: unit-disk graph of 256 nodes (radius 0.15, connected).
//     Every request walks in 256-hop budgeted segments, resuming from the
//     signed token until a verdict: the same walk through route.Cursor,
//     RouteBudgeted and internal/token, the path a single cursor-driven walk
//     driver would rewrite.
//   - world_churn: 16x16 grid with two named worlds under Markov link
//     flapping (p_down 0.01, p_up 0.5, seeds seed and seed+1), one per
//     connection. Seven of eight requests route with hops_per_epoch 256,
//     each forcing dozens of delta recompiles; the eighth advances four
//     epochs. Writes beside reads on internal/dynamic's compile path.
//   - tenant_churn: 8x8 boot grid plus twelve registered unit-disk specs
//     (256 nodes, radius 0.15, generator seeds 1..12) over the registry's
//     LRU of eight. Each request routes on a random spec and re-registers
//     it on 404 inside the same logical request; about a third miss.
//     Registry hits set p50 and tenant compiles set p99: compile work shows
//     here and nowhere else.
//
// # End-to-end metrics
//
// Per workload, with tracing off: setup_s (s); throughput_rps, completed
// logical requests per measured second; p50_us and p99_us, nearest-rank
// latency of a logical request including every resume segment or
// re-registration; error_ratio, non-2xx replies, transport errors and 429s
// over attempts; wrong_verdicts; and rss_mb, the median of the daemon's
// VmRSS sampled every 100ms over the measured window (MB = 10^6 bytes).
// The high-water mark VmHWM is reported per layer as adhocd.peak_rss_mb
// instead: it is set by sub-100ms spikes and moved by 44% between
// world_churn runs, while the sampled median moves by about 1%.
// error_ratio and wrong_verdicts are 0 on a correct run, so BENCHMARK.json
// bounds the other five and the result line carries them as failed and
// correct.
//
// # Oracles
//
// route_short, route_long and tenant_churn verdicts must match breadth-first
// reachability on the graph rebuilt with internal/gen. route_resume must in
// addition return, summed over its segments, exactly the hops of an
// uninterrupted in-process Engine.Route at protocol seed 7 (split ==
// uninterrupted). Each world_churn world has one writer, so its history is
// a function of the seed: its first 1000 requests are replayed in-process
// (Engine.NewWorld, then RouteDynamic and Advance in log order) and any
// verdict, hop, round, bound or aborted-round mismatch counts as wrong.
//
// # The ladder
//
// The traced run (-trace 1) follows the end-to-end run. It boots two fresh
// daemons, one at the default -trace-sample 1 and one at -trace-sample 0,
// and replays the first 2000 requests of the seeded stream (stopping after
// 8 s) through every rung, one query at a time. The rung order rotates per
// query and is reversed on every other query: a rung that runs right after
// another finds the caches it warmed, and with rotation alone the rung that
// follows the walk replay made route.self_us read -25us instead of about
// zero on route_long. Every in-process rung must reproduce the HTTP reply's
// verdict, hops, rounds and bound, or the run fails. Rungs, by module:
//
//	flatgraph  Graph.RouteWalk per reference round with Seq{Seed, Base 3,
//	           Length RoundStat.SeqLen}, checked hop for hop against
//	           RoundStat.Hops; Graph.CoverWalk + Closed per failed round
//	route      route.Router.Route; self time subtracts walk and cover
//	engine     engine.Engine.Route; self time subtracts route.
//	           Engine.RouteBudgeted per 256-hop segment, resumed from cursors
//	token      token.Signer.Sign and Verify on those segment cursors
//	registry   registry.Registry.Obtain: the tenant LRU mirrored in-process,
//	           or the boot spec (hit per query, miss on fresh registries);
//	           registry counters come from /v1/stats over the run
//	degred     degred.Reduce on every distinct network of the workload
//	dynamic    Engine.RouteDynamic on the in-process twin of world w0 (or a
//	           frozen world elsewhere); World.Advance and World.Compiled
//	adhocd     one keep-alive request per query at c=1 to each daemon:
//	           serve_us pairs it with the in-process twin of the request,
//	           trace_us with the -trace-sample 0 daemon, and queue_us is the
//	           end-to-end p50 minus the c=1 p50; reply bytes, 429s and 5xx
//	           come from the end-to-end run, heap and GC pause from /metrics
//
// Self times are medians of per-query paired differences, which cancel
// drift the two rungs share. A self time near zero, or slightly below it,
// means the layer adds nothing measurable beside the jitter of the paired
// calls; bench.span_overhead_ns is what recording one span costs.
// route_*, flatgraph.* and engine.* metrics always describe the static
// network a query runs on; for world_churn that is the unchurned 16x16
// grid, a baseline for dynamic.route_ms on the same pairs.
//
// The c=1 request runs between in-process rungs, so it meets an idle
// daemon and pays its wake-up; the closed loop keeps the daemon busy. A
// negative queue_us therefore means the two connections do not queue
// behind each other on two vCPUs.
//
// # Comparing
//
// -compare parent.json change.json pairs run i of each workload in the two
// reports (at least ten pairs, alternating which side ran first) and prints
// one row per workload and bounded metric: improved when the change wins
// nine of ten pairs and the medians differ by more than the parent's
// interquartile distance; regressed when its median is worse than the
// parent's by more than the metric's bound; unresolved with fewer than ten
// pairs, or when the parent's own spread exceeds the bound and not every
// change run beats every parent run; no-worse otherwise.
//
// -sets N runs the full set N times, interleaved, on seeds seed..seed+N-1,
// and prints for each workload and bounded metric the spread across the
// sets (interquartile distance over median, as Python's
// statistics.quantiles computes quartiles) and the gap between the medians
// of the first and second half, next to the bound.
//
// # Where a request's time goes
//
// loadgen's 2.3 ms p50 in the docs/OPERATIONS.md transcript was measured
// at eight connections. Re-running that transcript's commands on a
// two-vCPU Xeon VM at 2.1 GHz, shared with other tenants, gave a p50 of
// 1.57 ms at c=8 and 0.38 ms at c=2 for nearly the same throughput (3727
// and 3303 req/s): about three quarters of the c=8 latency is waiting
// behind the other requests. At two connections queue_us is about zero,
// and the rest splits as below. These lines are the split output of a
// traced seed-1 run of each workload on the same VM, pasted by script; all
// values are p50 µs:
//
//	route_short  e2e 137.2 = http 143.5 + queue -6.3 | http = engine 15.3 + serve 125.9 (trace 32.5) | engine = walk 12.3 + cover 2.8 + route self 0.2 + engine self 0.2
//	route_long   e2e 1220.0 = http 1431.1 + queue -211.1 | http = engine 616.9 + serve 695.1 (trace 499.4) | engine = walk 485.4 + cover 134.3 + route self -4.9 + engine self 1.7
//
// On short walks the serving tax is nearly the whole request: the engine,
// walk included, is about a tenth of the c=1 HTTP latency. On long walks
// the walk and its closure walks are over two fifths of it. Tracing at the
// default -trace-sample 1 records every hop of every round, so its cost
// grows with the walk: about a quarter of the serving tax on route_short
// and most of it on route_long (loadgen forces tracing on every request as
// well). In order: queueing, then walk length, then tracing; a binary
// protocol could only win the untraced remainder of serve_us.
//
// # Traps found while sizing
//
//   - Bernoulli churn collapses. On the 16x16 grid, {"kind":"churn",
//     "p_drop":0.02,"add_rate":1} leaves 103 of 480 links after 100 epochs
//     and 53 after 1000 (measured with dynamic.NewWorld at seed 1); from
//     then on most pairs are unreachable and answered by O(1) certificates,
//     and the workload stops exercising recompiles. Markov flapping with
//     p_down 0.01 and p_up 0.5 stays near 470 links, its stationary 98%.
//   - Reply hops leave out the closure walks. After every failed round the
//     §4 closure check walks T_bound locally, and a reply's hops count none
//     of it. On route_long the median query walks
//     route.cover_steps_per_query such steps beside route.hops_per_query
//     message hops, and flatgraph.cover_us is a fifth of engine.route_us: a
//     cost model built on reply hops undercounts the walk.
//   - The median of a doubling walk sits between rounds. Hop counts cluster
//     by the round a walk succeeds in, and the median falls in a gap: the
//     median uninterrupted hop count of 8192 uniform route_resume pairs
//     ranges from 4642 to 6096 across seeds 101-110. route_resume's p50_us
//     therefore moves with the seed by more than machine noise, and its
//     spread is the widest of round 1 below.
//
// # Measured spreads
//
// Spread is the interquartile distance of ten runs on ten seeds over their
// median (as Python's statistics.quantiles computes quartiles), each run a
// separate process at 15 s, on the machine named above. Round 1 used seeds
// 101-110, round 2 seeds 201-210 about an hour later; the last column is
// how much worse round 2's median read than round 1's:
//
//	workload      metric            round 1   round 2   medians
//	route_short   setup_s              9.1%     29.5%    +16.4%
//	route_short   throughput_rps       9.2%     34.1%     +5.4%
//	route_short   p50_us               9.6%     46.9%     +6.0%
//	route_short   p99_us               9.2%     37.8%     +4.8%
//	route_short   rss_mb               1.4%      1.1%     +0.1%
//	route_long    setup_s              9.8%     36.9%     +4.4%
//	route_long    throughput_rps       7.0%     23.7%     -1.6%
//	route_long    p50_us               6.0%     19.3%     -0.4%
//	route_long    p99_us               8.4%     38.4%     -2.9%
//	route_long    rss_mb               0.5%      0.9%     -0.5%
//	route_resume  setup_s             29.0%     36.9%    +12.4%
//	route_resume  throughput_rps      14.2%     14.2%     -1.5%
//	route_resume  p50_us              13.0%     25.4%     -2.3%
//	route_resume  p99_us              14.3%     14.3%     -3.6%
//	route_resume  rss_mb               1.2%      1.0%     -0.0%
//	world_churn   setup_s             22.9%     38.5%     -3.8%
//	world_churn   throughput_rps       9.3%     16.8%     +2.9%
//	world_churn   p50_us               9.7%     16.2%     +1.3%
//	world_churn   p99_us              12.8%     23.4%     +1.7%
//	world_churn   rss_mb               0.8%      1.3%     -0.1%
//	tenant_churn  setup_s             19.6%     32.7%     -4.7%
//	tenant_churn  throughput_rps      11.7%     15.8%     +3.7%
//	tenant_churn  p50_us              12.1%     18.3%     +2.7%
//	tenant_churn  p99_us              12.4%     18.7%     +2.7%
//	tenant_churn  rss_mb               1.2%      0.7%     -0.7%
//
// The host itself drifts: a single-threaded CPU loop on this VM varied by
// 17% (interquartile over median) between 15 s windows over five minutes,
// and process CPU time tracked wall time exactly, so the slowdown is
// contended instructions, not preemption, and no longer window removes it.
// Round 2 met episodes minutes long in which every workload slowed at once
// (route_short's p50 by half, in three of its ten runs); no statistic
// within a 15 s run can remove an episode longer than the run, so on such
// a host the wall-clock spreads can exceed any bound. Every wall-clock
// bound is therefore 0.25, the largest allowed; rss_mb's is 0.10. A run of
// -sets 2 agreed within those bounds on every workload and metric; its
// largest gap was route_resume's p50_us, at the seed effect above.
package perf
