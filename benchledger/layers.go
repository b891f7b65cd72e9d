package main

import (
	"context"
	"io"
	"runtime"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/parallel"
	"streamcover/internal/rng"
	"streamcover/internal/setsystem"
	"streamcover/internal/stream"
)

// This file is the traced mode's instrumentation of the solve path. The
// program itself is not changed: the benchmark builds the solver with
// core.NewSolver, wraps the stream and each guess group from Children(),
// and drives them with parallel.Run or stream.RunTraced exactly as
// core.Solver.Run does. The wrappers forward every optional interface the
// drivers query (StableItems, ArrivalOrder, Err, Close, ReplayedPass,
// LiveLanes); without that, parallel.Run would copy items and the traced
// run would measure a different path.

// layers accumulates per-layer metrics over a run's traced operations.
// Each metric is a mean over the observations added to it.
type layers map[string]*mean

func (l layers) add(name string, v float64) {
	a := l[name]
	if a == nil {
		a = &mean{}
		l[name] = a
	}
	a.add(v)
}

// layerUnits lists every per-layer metric and its unit. A metric whose layer
// does not run on a workload reads 0 there.
var layerUnits = []struct{ name, unit string }{
	{"stream.next_s", "s"},
	{"stream.next_first_pass_s", "s"},
	{"stream.items", "count"},
	{"stream.replayed_passes", "count"},
	{"stream.plan_mb", "MB"},
	{"stream.first_pass_alloc_mb", "MB"},
	{"core.observe_s", "s"},
	{"core.observe_prune_s", "s"},
	{"core.observe_store_s", "s"},
	{"core.observe_subtract_s", "s"},
	{"core.subsolve_s", "s"},
	{"core.endpass_s", "s"},
	{"core.live_lanes", "count"},
	{"parallel.pass_s", "s"},
	{"parallel.worker_busy_max_s", "s"},
	{"parallel.worker_busy_mean_s", "s"},
	{"parallel.imbalance", "ratio"},
	{"parallel.idle_s", "s"},
	{"maxcover.solve_s", "s"},
	{"maxcover.covered_elems", "elements"},
	{"registry.upload_s", "s"},
	{"registry.pin_s", "s"},
	{"registry.plan_build_s", "s"},
	{"registry.plan_mb", "MB"},
	{"registry.resident_mb", "MB"},
	{"service.admission_s", "s"},
	{"service.cache_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.solve_s", "s"},
	{"service.handler_self_s", "s"},
	{"service.cache_hits", "count"},
	{"client.transport_s", "s"},
}

func (l layers) fill(m map[string]metric) {
	for _, u := range layerUnits {
		v := 0.0
		if a := l[u.name]; a != nil {
			v = a.value()
		}
		m[u.name] = metric{v, u.unit}
	}
}

// solveTrace collects one traced solve: the stream wrapper's and every
// group wrapper's timings, plus the driver's pass samples.
type solveTrace struct {
	next      time.Duration
	nextFirst time.Duration
	items     int
	pass      int // passes begun on the stream (Reset calls)

	groups  []*tracedGroup
	samples []stream.PassSample
	allocs  []uint64 // heap bytes allocated by the end of each pass
	alloc0  uint64
}

// TracePass implements stream.TraceSink. The drivers call it once per pass
// from the driving goroutine, after the pass barrier.
func (t *solveTrace) TracePass(s stream.PassSample) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.samples = append(t.samples, s)
	t.allocs = append(t.allocs, ms.TotalAlloc)
}

// tracedStream times Next on the wrapped stream.
type tracedStream struct {
	src stream.Stream
	t   *solveTrace
}

func (s *tracedStream) Universe() int { return s.src.Universe() }
func (s *tracedStream) Len() int      { return s.src.Len() }
func (s *tracedStream) Reset()        { s.t.pass++; s.src.Reset() }

func (s *tracedStream) Next() (stream.Item, bool) {
	t0 := time.Now()
	it, ok := s.src.Next()
	d := time.Since(t0)
	s.t.next += d
	if s.t.pass == 1 {
		s.t.nextFirst += d
	}
	if ok {
		s.t.items++
	}
	return it, ok
}

func (s *tracedStream) StableItems() bool {
	st, ok := s.src.(parallel.Stable)
	return ok && st.StableItems()
}

func (s *tracedStream) Err() error { return stream.PassErr(s.src) }

func (s *tracedStream) Close() error {
	if c, ok := s.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (s *tracedStream) ReplayedPass() bool {
	pr, ok := s.src.(stream.PassReplayer)
	return ok && pr.ReplayedPass()
}

// orderedTracedStream adds ArrivalOrder for sources that declare one: a
// default order would change how a PlanCache above it replays.
type orderedTracedStream struct {
	*tracedStream
	o stream.Ordered
}

func (s orderedTracedStream) ArrivalOrder() stream.Order { return s.o.ArrivalOrder() }

func wrapStream(src stream.Stream, t *solveTrace) stream.Stream {
	ts := &tracedStream{src: src, t: t}
	if o, ok := src.(stream.Ordered); ok {
		return orderedTracedStream{ts, o}
	}
	return ts
}

// Observe phases of Algorithm 1, known from the pass index: pass 0 prunes,
// then odd passes store sampled projections and even passes subtract.
const (
	phasePrune = iota
	phaseStore
	phaseSubtract
)

func phaseOf(pass int) int {
	switch {
	case pass == 0:
		return phasePrune
	case pass%2 == 1:
		return phaseStore
	default:
		return phaseSubtract
	}
}

// tracedGroup times one guess group. Exactly one goroutine drives a group
// during a pass, so its fields need no locking; they are read after the
// driver returns.
type tracedGroup struct {
	alg      stream.PassAlgorithm
	phase    int
	observe  [3]time.Duration
	subsolve time.Duration // EndPass of store passes: the step-3(c) sub-solve
	endpass  time.Duration // EndPass of the other passes
	busy     []time.Duration
}

func (g *tracedGroup) BeginPass(pass int) {
	t0 := time.Now()
	g.phase = phaseOf(pass)
	g.alg.BeginPass(pass)
	for len(g.busy) <= pass {
		g.busy = append(g.busy, 0)
	}
	g.busy[pass] += time.Since(t0)
}

func (g *tracedGroup) Observe(it stream.Item) {
	t0 := time.Now()
	g.alg.Observe(it)
	d := time.Since(t0)
	g.observe[g.phase] += d
	g.busy[len(g.busy)-1] += d
}

func (g *tracedGroup) EndPass() bool {
	t0 := time.Now()
	done := g.alg.EndPass()
	d := time.Since(t0)
	if g.phase == phaseStore {
		g.subsolve += d
	} else {
		g.endpass += d
	}
	g.busy[len(g.busy)-1] += d
	return done
}

func (g *tracedGroup) Space() int { return g.alg.Space() }

func (g *tracedGroup) LiveLanes() int {
	lc, ok := g.alg.(stream.LaneCounter)
	if !ok {
		return -1
	}
	return lc.LiveLanes()
}

// solveSetCoverTraced is streamcover.SolveSetCover(inst, WithAlpha(alpha),
// WithSeed(seed), WithParallelism(workers)[, WithReplayPlan]) taken apart
// so each layer can be timed: core.Solve's stream-order split, then
// tracedRun. plan may be nil.
func solveSetCoverTraced(inst *streamcover.Instance, alpha, workers int, seed uint64,
	plan *stream.Plan, l layers) (streamcover.SetCoverResult, error) {
	r := rng.New(seed)
	var st stream.Stream = stream.FromInstance(inst, stream.Adversarial, r.Split("stream-order"))
	if plan != nil {
		st = stream.Replay(st, plan)
	}
	return tracedRun(st, core.Config{Alpha: alpha, Workers: workers}, r, l)
}

// tracedRun is core.SolveStream with every layer wrapped. Its results are
// identical to the untraced call (the layer tests pin this).
func tracedRun(st stream.Stream, cfg core.Config, r *rng.RNG, l layers) (streamcover.SetCoverResult, error) {
	t := &solveTrace{}
	solver := core.NewSolver(st.Universe(), st.Len(), cfg, r)
	children := make([]stream.PassAlgorithm, 0, len(solver.Children()))
	for _, c := range solver.Children() {
		g := &tracedGroup{alg: c}
		t.groups = append(t.groups, g)
		children = append(children, g)
	}
	ws := wrapStream(st, t)
	maxPasses := cfg.MaxPasses() + 1
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc0 = ms.TotalAlloc
	var acc stream.Accounting
	var err error
	if cfg.Workers == 1 {
		acc, err = stream.RunTraced(context.Background(), ws, stream.NewParallel(children...), maxPasses, t)
	} else {
		acc, err = parallel.Run(ws, children, parallel.Config{Workers: cfg.Workers, MaxPasses: maxPasses, Trace: t})
	}
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	best, ok := solver.Best()
	if !ok {
		return streamcover.SetCoverResult{}, streamcover.ErrInfeasible
	}
	t.record(st, parallel.Workers(cfg.Workers), l)
	return streamcover.SetCoverResult{Cover: best.Cover, Guess: best.Guess,
		Passes: acc.Passes, SpaceWords: acc.PeakSpace}, nil
}

// record adds one solve's layer metrics to l. Worker busy time follows the
// parallel driver's partition: with w workers, the j-th still-active group
// of a pass runs on worker j mod w.
func (t *solveTrace) record(st stream.Stream, workers int, l layers) {
	l.add("stream.next_s", t.next.Seconds())
	l.add("stream.next_first_pass_s", t.nextFirst.Seconds())
	l.add("stream.items", float64(t.items))
	replayed, live := 0, 0
	var wall time.Duration
	for _, s := range t.samples {
		wall += s.Duration
		live += s.Live
		if s.Replayed {
			replayed++
		}
	}
	l.add("stream.replayed_passes", float64(replayed))
	if len(t.allocs) > 0 {
		l.add("stream.first_pass_alloc_mb", float64(t.allocs[0]-t.alloc0)/1e6)
	}
	if pc, ok := st.(*stream.PlanCache); ok {
		l.add("stream.plan_mb", float64(pc.PlanBytes())/1e6)
	}
	if len(t.samples) > 0 {
		l.add("core.live_lanes", float64(live)/float64(len(t.samples)))
	}

	var observe [3]time.Duration
	var subsolve, endpass time.Duration
	for _, g := range t.groups {
		for i := range observe {
			observe[i] += g.observe[i]
		}
		subsolve += g.subsolve
		endpass += g.endpass
	}
	l.add("core.observe_s", (observe[0] + observe[1] + observe[2]).Seconds())
	l.add("core.observe_prune_s", observe[phasePrune].Seconds())
	l.add("core.observe_store_s", observe[phaseStore].Seconds())
	l.add("core.observe_subtract_s", observe[phaseSubtract].Seconds())
	l.add("core.subsolve_s", subsolve.Seconds())
	l.add("core.endpass_s", endpass.Seconds())

	if workers == 1 {
		return // the sequential driver ran: the parallel layer did not
	}
	w := min(workers, len(t.groups))
	busy := make([]time.Duration, w)
	for pass := range t.samples {
		j := 0
		for _, g := range t.groups {
			if pass < len(g.busy) {
				busy[j%w] += g.busy[pass]
				j++
			}
		}
	}
	var sum, most time.Duration
	for _, b := range busy {
		sum += b
		most = max(most, b)
	}
	meanBusy := sum.Seconds() / float64(w)
	l.add("parallel.pass_s", wall.Seconds())
	l.add("parallel.worker_busy_max_s", most.Seconds())
	l.add("parallel.worker_busy_mean_s", meanBusy)
	if meanBusy > 0 {
		l.add("parallel.imbalance", most.Seconds()/meanBusy)
	}
	l.add("parallel.idle_s", float64(w)*wall.Seconds()-sum.Seconds())
}

// planOf records the replay plan coverd builds for an instance on its
// first multi-pass solve (streamcover.BuildReplayPlan).
func planOf(inst *setsystem.Instance) (*stream.Plan, error) {
	return stream.BuildPlan(stream.FromInstance(inst, stream.Adversarial, nil), 0)
}
