package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"streamcover"
	"streamcover/client"
	"streamcover/internal/core"
	"streamcover/internal/parallel"
	"streamcover/internal/rng"
	"streamcover/internal/stream"
)

// The traced run must measure the path the untraced run takes: same
// results, and a stream wrapper that keeps every optional interface the
// drivers query.

func TestTracedSolveMatchesUntraced(t *testing.T) {
	inst, _ := streamcover.GeneratePlanted(11, 1024, 128, 4)
	plan, err := planOf(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		for _, withPlan := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/plan=%t", workers, withPlan)
			opts := []streamcover.Option{streamcover.WithAlpha(alpha), streamcover.WithSeed(9),
				streamcover.WithParallelism(workers)}
			var p *stream.Plan
			if withPlan {
				p = plan
				rp, err := streamcover.BuildReplayPlan(inst)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, streamcover.WithReplayPlan(rp))
			}
			want, err := streamcover.SolveSetCover(inst, opts...)
			if err != nil {
				t.Fatal(err)
			}
			l := layers{}
			got, err := solveSetCoverTraced(inst, alpha, workers, 9, p, l)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSetCover(got, want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if l["core.observe_s"].value() <= 0 || l["core.subsolve_s"] == nil {
				t.Errorf("%s: core layer not recorded", name)
			}
			if items := l["stream.items"].value(); items != float64(inst.M()*got.Passes) {
				t.Errorf("%s: stream.items = %v, want m × passes = %d", name, items, inst.M()*got.Passes)
			}
			if ran := l["parallel.pass_s"] != nil; ran != (workers > 1) {
				t.Errorf("%s: parallel layer recorded %t, want %t", name, ran, workers > 1)
			}
		}
	}
}

func TestTracedFileSolveMatchesUntraced(t *testing.T) {
	f := &fileCold{path: filepath.Join(t.TempDir(), "inst.scb1")}
	inst, _ := streamcover.GeneratePlanted(12, 2048, 128, fileK)
	if err := writeSCB1(f.path, inst); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		f.workers, f.traced = workers, false
		want, err := f.solve(5)
		if err != nil {
			t.Fatal(err)
		}
		f.traced, f.layers = true, layers{}
		got, err := f.solve(5)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSetCover(got, want); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if f.layers["stream.replayed_passes"].value() != float64(got.Passes-1) {
			t.Errorf("workers=%d: %v replayed passes, want all but the first of %d",
				workers, f.layers["stream.replayed_passes"].value(), got.Passes)
		}
		if f.layers["stream.plan_mb"].value() <= 0 {
			t.Errorf("workers=%d: no plan recorded", workers)
		}
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.scb1")
	inst, _ := streamcover.GeneratePlanted(13, 256, 32, 3)
	if err := writeSCB1(path, inst); err != nil {
		t.Fatal(err)
	}
	src, err := stream.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	pc := stream.NewPlanCache(src, 0)
	defer pc.Close()

	// A PlanCache declares no arrival order; its source does.
	for _, c := range []struct {
		name    string
		s       stream.Stream
		ordered bool
	}{{"file", src, true}, {"plan cache", pc, false}, {"instance", stream.FromInstance(inst, stream.RandomOnce, rng.New(1)), true}} {
		w := wrapStream(c.s, &solveTrace{})
		if _, ok := w.(parallel.Stable); !ok {
			t.Errorf("%s: StableItems not forwarded", c.name)
		}
		if _, ok := w.(stream.Failer); !ok {
			t.Errorf("%s: Err not forwarded", c.name)
		}
		if _, ok := w.(io.Closer); !ok {
			t.Errorf("%s: Close not forwarded", c.name)
		}
		if _, ok := w.(stream.PassReplayer); !ok {
			t.Errorf("%s: ReplayedPass not forwarded", c.name)
		}
		o, ok := w.(stream.Ordered)
		if ok != c.ordered {
			t.Errorf("%s: ArrivalOrder present %t, want %t", c.name, ok, c.ordered)
		}
		if ok && o.ArrivalOrder() != c.s.(stream.Ordered).ArrivalOrder() {
			t.Errorf("%s: ArrivalOrder %v, want %v", c.name, o.ArrivalOrder(), c.s.(stream.Ordered).ArrivalOrder())
		}
	}
	// Stability flips on once the plan cache has recorded its first pass.
	w := wrapStream(pc, &solveTrace{})
	w.Reset()
	for _, ok := w.Next(); ok; _, ok = w.Next() {
	}
	w.Reset()
	if !w.(parallel.Stable).StableItems() || !w.(stream.PassReplayer).ReplayedPass() {
		t.Error("a replaying plan cache reads as unstable or not replaying through the wrapper")
	}

	solver := core.NewSolver(inst.N, inst.M(), core.Config{Alpha: alpha, Workers: 2}, rng.New(1))
	var g stream.PassAlgorithm = &tracedGroup{alg: solver.Children()[0]}
	if _, ok := g.(stream.LaneCounter); !ok {
		t.Error("LiveLanes not forwarded")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(name string, start, dur int, children ...client.TraceSpan) client.TraceSpan {
		return client.TraceSpan{Name: name, Start: at(start), DurationSeconds: float64(dur) / 1000, Children: children}
	}
	// root [0,100): admission [10,20) holding pin [11,12) and a job that
	// outlives it, [19,90) with queue [19,30) and solve [30,85).
	root := span("HTTP", 0, 100,
		span("admission", 10, 10,
			span("pin", 11, 1),
			span("job", 19, 71, span("queue", 19, 11), span("solve", 30, 55))))
	const eps = 1e-9
	if got := selfTime(root); got < 0.020-eps || got > 0.020+eps {
		t.Errorf("root self time %v, want 0.020 (100 ms minus [10,90))", got)
	}
	adm := root.Children[0]
	if got := selfTime(adm); got < 0.008-eps || got > 0.008+eps {
		t.Errorf("admission self time %v, want 0.008 (10 ms minus pin and the job's first ms)", got)
	}
	if got := selfTime(span("leaf", 0, 7)); got < 0.007-eps || got > 0.007+eps {
		t.Errorf("leaf self time %v, want its duration", got)
	}
}
