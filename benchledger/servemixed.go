package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/buildinfo"
	"streamcover/internal/obs"
	"streamcover/internal/obs/trace"
	"streamcover/internal/registry"
	"streamcover/internal/service"
	"streamcover/internal/stream"
)

// serve-mixed runs coverd in process behind httptest, wired as cmd/coverd
// wires it by default (metrics registry and flight recorder on, access log
// off, default service.Config), and drives it with serveLanes Go-client
// goroutines as a closed loop. Each lane's round is the fixed op list
// laneOps; the lanes meet at the end of every round.
const (
	// Resident instances, uploaded at set-up and solved every round.
	serveN, serveM, serveK = 4096, 512, 5
	serveResident          = 3
	// Fresh instances: each lane uploads one per round, then solves it once,
	// which builds its replay plan.
	freshN, freshM, freshK = 2048, 256, 4
	maxcoverK              = 3
	serveLanes             = 2
	serveBudgetBytes       = 256 << 20 // coverd -mem-budget-mb default
	serveMaxUpload         = 1024 << 20
)

type opKind int

const (
	opUpload   opKind = iota // upload a fresh instance
	opFirst                  // first solve of the fresh instance (plan build)
	opWarm                   // NoCache setcover on a resident instance (replayed passes)
	opMaxcover               // NoCache maxcover on a resident instance
	opCached                 // repeated setcover request, answered from the result cache
)

// laneOps is one lane's round: mostly warm solves, some maxcover, a
// minority of cache hits, and one upload with its plan-building solve.
// Warm solves are three in five, so both latency percentiles fall inside
// that class rather than on the boundary between two classes.
var laneOps = []opKind{opUpload, opFirst, opWarm, opWarm, opMaxcover, opWarm, opCached, opWarm,
	opWarm, opMaxcover, opWarm, opWarm, opCached, opWarm, opWarm}

// serveOp is one operation of a lane's round and its outcome.
type serveOp struct {
	kind    opKind
	inst    *streamcover.Instance
	k       int // planted optimum of inst (maxcover: the budget)
	req     client.SolveRequest
	job     client.Job
	up      client.UploadResponse
	err     error
	lat     float64
	traceID string
}

type serveMixed struct {
	base
	seed     uint64
	round    int // rounds prepared so far, across windows: fresh inputs never repeat
	srv      *httptest.Server
	hc       *http.Client
	cl       *client.Client
	reg      *registry.Registry
	sched    *service.Scheduler
	resident []*streamcover.Instance
	hashes   []string
	lanes    [serveLanes][]serveOp
	refsSC   map[string]streamcover.SetCoverResult // by request, for resident instances
	refsMC   map[string]streamcover.MaxCoverageResult
	plans    map[*streamcover.Instance]*stream.Plan // traced-mode core re-solves
	resolved bool
}

func newServeMixed(seed uint64) (*serveMixed, error) {
	s := &serveMixed{seed: seed, base: base{layers: layers{}},
		refsSC: map[string]streamcover.SetCoverResult{}, refsMC: map[string]streamcover.MaxCoverageResult{},
		plans: map[*streamcover.Instance]*stream.Plan{}}
	metrics := obs.NewRegistry()
	buildinfo.Register(metrics)
	s.reg = registry.New(registry.Config{BudgetBytes: serveBudgetBytes})
	s.reg.RegisterMetrics(metrics)
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.sched = service.NewScheduler(s.reg, service.Config{Metrics: metrics, Logger: logger})
	handler := service.NewServer(s.reg, s.sched, serveMaxUpload, service.WithMetrics(metrics),
		service.WithLogger(logger), service.WithTracing(trace.NewTracer(trace.DefaultCapacity, 0)))
	s.srv = httptest.NewServer(handler)
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveLanes}}
	s.cl = client.New(s.srv.URL, client.WithHTTPClient(s.hc))

	ctx := context.Background()
	for i := 0; i < serveResident; i++ {
		inst, planted := streamcover.GeneratePlanted(derive(seed, 10, uint64(i)), serveN, serveM, serveK)
		if err := checkCover(inst, planted); err != nil {
			s.close()
			return nil, fmt.Errorf("resident instance %d: planted cover: %w", i, err)
		}
		up, err := s.cl.UploadInstance(ctx, inst)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("upload resident instance %d: %w", i, err)
		}
		s.resident = append(s.resident, inst)
		s.hashes = append(s.hashes, up.Hash)
	}
	// Warm-up: every resident plan built, every cache-hit request cached.
	var warm []client.SolveRequest
	for i := range s.resident {
		warm = append(warm, client.SolveRequest{Instance: s.hashes[i], Alpha: alpha, Seed: derive(seed, 11, uint64(i)), NoCache: true})
	}
	for l := 0; l < serveLanes; l++ {
		for j, kind := range laneOps {
			if kind == opCached {
				op := s.residentOp(kind, l, j)
				warm = append(warm, op.req)
			}
		}
	}
	for _, req := range warm {
		if _, err := s.cl.Solve(ctx, req); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	return s, nil
}

func (s *serveMixed) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.sched != nil {
		s.sched.Stop()
	}
}

// residentOp builds the fixed request of lane l's j-th operation on a
// resident instance; the same request repeats every round.
func (s *serveMixed) residentOp(kind opKind, l, j int) serveOp {
	i := (l + j) % serveResident
	op := serveOp{kind: kind, inst: s.resident[i], k: serveK}
	op.req = client.SolveRequest{Instance: s.hashes[i], Alpha: alpha, Seed: derive(s.seed, 12, uint64(l), uint64(j))}
	switch kind {
	case opWarm:
		op.req.NoCache = true
	case opMaxcover:
		op.req = client.SolveRequest{Instance: s.hashes[i], Algo: "maxcover", K: maxcoverK,
			Seed: op.req.Seed, NoCache: true}
		op.k = maxcoverK
	}
	return op
}

// prepare generates the round's fresh instances (outside the window).
func (s *serveMixed) prepare(int) error {
	r := s.round
	s.round++
	for l := range s.lanes {
		ops := s.lanes[l][:0]
		fresh, planted := streamcover.GeneratePlanted(derive(s.seed, 13, uint64(r), uint64(l)), freshN, freshM, freshK)
		if err := checkCover(fresh, planted); err != nil {
			return fmt.Errorf("fresh instance: planted cover: %w", err)
		}
		for j, kind := range laneOps {
			switch kind {
			case opUpload:
				ops = append(ops, serveOp{kind: kind, inst: fresh, k: freshK})
			case opFirst:
				ops = append(ops, serveOp{kind: kind, inst: fresh, k: freshK, req: client.SolveRequest{
					Alpha: alpha, Seed: derive(s.seed, 14, uint64(r), uint64(l)), NoCache: true}})
			default:
				ops = append(ops, s.residentOp(kind, l, j))
			}
		}
		s.lanes[l] = ops
	}
	return nil
}

func (s *serveMixed) run(int) []float64 {
	var wg sync.WaitGroup
	for l := range s.lanes {
		wg.Add(1)
		go func(ops []serveOp) {
			defer wg.Done()
			for i := range ops {
				s.do(&ops[i], ops)
			}
		}(s.lanes[l])
	}
	wg.Wait()
	var lat []float64
	for _, ops := range s.lanes {
		for _, op := range ops {
			if op.err == nil {
				lat = append(lat, op.lat)
			}
		}
	}
	return lat
}

// do runs one operation; in traced mode it carries a fresh traceparent so
// the server's span tree can be read back afterwards.
func (s *serveMixed) do(op *serveOp, lane []serveOp) {
	ctx := context.Background()
	if s.traced {
		sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID(), Sampled: true}
		op.traceID = sc.TraceID.String()
		ctx = client.WithTraceContext(ctx, sc.Traceparent())
	}
	t0 := time.Now()
	switch op.kind {
	case opUpload:
		op.up, op.err = s.cl.UploadInstance(ctx, op.inst)
		if op.err == nil {
			// The lane's next operation solves what was just uploaded.
			lane[1].req.Instance = op.up.Hash
		}
	default:
		if op.req.Instance == "" {
			op.err = errors.New("fresh instance was not uploaded")
			return
		}
		op.job, op.err = s.cl.Solve(ctx, op.req)
	}
	op.lat = time.Since(t0).Seconds()
	if op.err == nil && s.traced {
		op.err = s.readTrace(op)
	}
}

// check validates every operation of the round outside the window: the
// checker's contract on each result, and equality with the in-process
// library call on the same request (coverd returns exactly what the library
// returns).
func (s *serveMixed) check(r int) (attempted, failed int) {
	hits := 0
	for l := range s.lanes {
		for i := range s.lanes[l] {
			op := &s.lanes[l][i]
			attempted++
			err := op.err
			if err == nil {
				if err = s.checkOp(op); err != nil {
					s.wrong++
				}
			}
			if err != nil {
				failed++
				s.logf("serve-mixed round %d lane %d op %d: %v", r, l, i, err)
				continue
			}
			if op.job.CacheHit {
				hits++
			}
			if op.kind == opUpload {
				continue
			}
			res := op.job.Result
			if r == 0 {
				s.counts.space.add(float64(res.SpaceWords))
				s.counts.passes.add(float64(res.Passes))
				if op.kind != opMaxcover {
					s.counts.cover.add(float64(len(res.Cover)))
				}
			}
			if op.kind == opMaxcover {
				s.layers.add("maxcover.covered_elems", float64(res.Covered))
			}
		}
	}
	s.layers.add("service.cache_hits", float64(hits))
	s.layers.add("registry.resident_mb", float64(s.reg.Stats().ResidentBytes)/1e6)
	if s.traced && !s.resolved {
		s.resolved = true
		if err := s.resolveCore(); err != nil {
			s.wrong++
			failed++
			s.logf("serve-mixed traced re-solve: %v", err)
		}
	}
	return attempted, failed
}

func (s *serveMixed) checkOp(op *serveOp) error {
	if op.kind == opUpload {
		if !op.up.Added || op.up.N != op.inst.N || op.up.M != op.inst.M() {
			return fmt.Errorf("upload of a fresh %dx%d instance answered %+v", op.inst.N, op.inst.M(), op.up)
		}
		return nil
	}
	job := op.job
	if job.Status != client.StatusDone || job.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error)
	}
	if job.CacheHit != (op.kind == opCached) {
		return fmt.Errorf("job %s: cache hit %t on a %v operation", job.ID, job.CacheHit, op.kind)
	}
	res := job.Result
	key := fmt.Sprint(op.req)
	if op.kind == opMaxcover {
		got := streamcover.MaxCoverageResult{Chosen: res.Cover, Covered: res.Covered, Passes: res.Passes, SpaceWords: res.SpaceWords}
		want, ok := s.refsMC[key]
		if !ok {
			var err error
			want, err = streamcover.SolveMaxCoverage(op.inst, op.k, streamcover.WithSeed(op.req.Seed))
			if err != nil {
				return fmt.Errorf("reference maxcover: %w", err)
			}
			s.refsMC[key] = want
		}
		if err := sameMaxCover(got, want); err != nil {
			return err
		}
		return checkMaxCover(op.inst, op.k, got)
	}
	got := streamcover.SetCoverResult{Cover: res.Cover, Guess: res.Guess, Passes: res.Passes, SpaceWords: res.SpaceWords}
	want, ok := s.refsSC[key]
	if !ok {
		var err error
		want, err = streamcover.SolveSetCover(op.inst, streamcover.WithAlpha(alpha), streamcover.WithSeed(op.req.Seed))
		if err != nil {
			return fmt.Errorf("reference setcover: %w", err)
		}
		if op.kind != opFirst {
			s.refsSC[key] = want
		}
	}
	if err := sameSetCover(got, want); err != nil {
		return err
	}
	return setCoverContract{alpha: alpha, eps: 0.5, k: op.k}.check(op.inst, got)
}

// resolveCore re-solves the round's warm setcover requests in process
// through the traced layer wrappers, the way coverd runs them (replay plan,
// the scheduler's per-job worker count), for the core and stream layer
// metrics that the server's spans do not split out. Each re-solve must
// equal the served result.
func (s *serveMixed) resolveCore() error {
	workers := s.sched.Config().JobWorkers
	for l := range s.lanes {
		for _, op := range s.lanes[l] {
			if op.kind != opWarm || op.err != nil {
				continue
			}
			plan := s.plans[op.inst]
			if plan == nil {
				var err error
				if plan, err = planOf(op.inst); err != nil {
					return err
				}
				s.plans[op.inst] = plan
			}
			got, err := solveSetCoverTraced(op.inst, alpha, workers, op.req.Seed, plan, s.layers)
			if err != nil {
				return err
			}
			if err := sameSetCover(got, s.refsSC[fmt.Sprint(op.req)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readTrace fetches the operation's span tree from GET /v1/traces/{id} and
// adds its layer self times. The recorder commits a trace when its last
// span ends, which can trail the response by a moment.
func (s *serveMixed) readTrace(op *serveOp) error {
	var rt client.RecordedTrace
	var err error
	for try := 0; try < 200; try++ {
		if rt, err = s.cl.Trace(context.Background(), op.traceID); err == nil {
			break
		}
		var api *client.APIError
		if !errors.As(err, &api) || api.StatusCode != http.StatusNotFound {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", op.traceID, err)
	}
	if len(rt.Spans) != 1 {
		return fmt.Errorf("trace %s has %d root spans", op.traceID, len(rt.Spans))
	}
	root := rt.Spans[0]
	s.layers.add("client.transport_s", op.lat-root.DurationSeconds)
	if op.kind == opUpload {
		s.layers.add("registry.upload_s", root.DurationSeconds)
		return nil
	}
	s.layers.add("service.handler_self_s", selfTime(root))
	walk(root, func(sp client.TraceSpan) {
		switch sp.Name {
		case "admission":
			s.layers.add("service.admission_s", selfTime(sp))
		case "pin":
			s.layers.add("registry.pin_s", sp.DurationSeconds)
		case "cache":
			s.layers.add("service.cache_s", sp.DurationSeconds)
		case "queue":
			s.layers.add("service.queue_wait_s", sp.DurationSeconds)
		case "solve":
			if sp.Attrs["algo"] == "maxcover" {
				s.layers.add("maxcover.solve_s", selfTime(sp))
			} else {
				s.layers.add("service.solve_s", selfTime(sp))
			}
		case "plan":
			if reused, _ := sp.Attrs["reused"].(bool); !reused {
				s.layers.add("registry.plan_build_s", sp.DurationSeconds)
				if b, ok := sp.Attrs["bytes"].(float64); ok {
					s.layers.add("registry.plan_mb", b/1e6)
				}
			}
		}
	})
	return nil
}

func walk(sp client.TraceSpan, f func(client.TraceSpan)) {
	f(sp)
	for _, c := range sp.Children {
		walk(c, f)
	}
}

// selfTime is a span's duration minus the part of its interval that its
// descendants cover.
func selfTime(sp client.TraceSpan) float64 {
	start := sp.Start
	end := start.Add(time.Duration(sp.DurationSeconds * float64(time.Second)))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range sp.Children {
		walk(c, func(d client.TraceSpan) {
			a := d.Start
			b := a.Add(time.Duration(d.DurationSeconds * float64(time.Second)))
			if a.Before(start) {
				a = start
			}
			if b.After(end) {
				b = end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		})
	}
	// Union of the clipped intervals.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a.Before(ivs[j-1].a); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return sp.DurationSeconds - covered.Seconds()
}
