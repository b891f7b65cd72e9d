package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamcover"
	"streamcover/internal/core"
	"streamcover/internal/stream"
)

// Input make-up of the two in-process workloads. Both use the program's
// planted-cover generator, so OPT ≤ k is known apart from the solver.
const (
	alpha = 3 // Theorem 2's α: 2α+1 = 7 passes at most

	// grid-mem: a pool of in-memory instances, each solved over the full
	// õpt guess grid; a round solves every pool instance once, each under
	// its own solver seed.
	gridN, gridM, gridK = 4096, 1024, 6
	gridPool            = 8

	// file-cold: one SCB1 file, solved cold (fresh stream, fresh plan
	// cache) with the planted optimum as the single õpt guess; a round is
	// fileOps solves under different solver seeds.
	fileN, fileM, fileK = 32768, 1024, 8
	fileOps             = 4
)

// solveOp is one recorded operation result.
type solveOp struct {
	inst int // pool index (grid-mem)
	seed uint64
	res  streamcover.SetCoverResult
	err  error
}

// solveLoad holds what grid-mem and file-cold share: the round's recorded
// results, the accounting means of round 0, the traced-mode layer ledger,
// and the count of results the checker rejected.
type solveLoad struct {
	base
	workers  int
	contract setCoverContract
	ops      []solveOp
}

func (s *solveLoad) prepare(int) error { return nil }
func (s *solveLoad) close()            {}

// checkOps validates the round's results with check and returns the
// attempted and failed counts; round 0 also feeds the accounting means.
func (s *solveLoad) checkOps(r int, check func(op solveOp) error) (attempted, failed int) {
	for _, op := range s.ops {
		err := op.err
		if err == nil {
			if err = check(op); err != nil {
				s.wrong++
			}
		}
		if err != nil {
			failed++
			s.logf("round %d seed %d: %v", r, op.seed, err)
			continue
		}
		if r == 0 {
			s.counts.space.add(float64(op.res.SpaceWords))
			s.counts.passes.add(float64(op.res.Passes))
			s.counts.cover.add(float64(len(op.res.Cover)))
		}
	}
	return len(s.ops), failed
}

// gridMem is the grid-mem workload: in-memory streamcover.SolveSetCover.
type gridMem struct {
	solveLoad
	seed  uint64
	insts []*streamcover.Instance
}

func newGridMem(seed uint64, workers int) (*gridMem, error) {
	g := &gridMem{seed: seed, solveLoad: solveLoad{workers: workers, base: base{layers: layers{}},
		contract: setCoverContract{alpha: alpha, eps: 0.5, k: gridK}}}
	for i := 0; i < gridPool; i++ {
		inst, planted := streamcover.GeneratePlanted(derive(seed, 1, uint64(i)), gridN, gridM, gridK)
		if err := checkCover(inst, planted); err != nil {
			return nil, fmt.Errorf("grid-mem instance %d: planted cover: %w", i, err)
		}
		g.insts = append(g.insts, inst)
	}
	// Warm-up: one operation, untimed.
	g.run(-1)
	if err := g.ops[0].err; err != nil {
		return nil, fmt.Errorf("grid-mem warm-up solve: %w", err)
	}
	return g, nil
}

func (g *gridMem) run(r int) []float64 {
	n := gridPool
	if r < 0 {
		n = 1
	}
	g.ops = g.ops[:0]
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		op := solveOp{inst: i, seed: derive(g.seed, 2, uint64(i))}
		inst := g.insts[op.inst]
		t0 := time.Now()
		if g.traced {
			op.res, op.err = solveSetCoverTraced(inst, alpha, g.workers, op.seed, nil, g.layers)
		} else {
			op.res, op.err = streamcover.SolveSetCover(inst, streamcover.WithAlpha(alpha),
				streamcover.WithSeed(op.seed), streamcover.WithParallelism(g.workers))
		}
		if op.err == nil {
			lat = append(lat, time.Since(t0).Seconds())
		}
		g.ops = append(g.ops, op)
	}
	return lat
}

func (g *gridMem) check(r int) (int, int) {
	return g.checkOps(r, func(op solveOp) error {
		return g.contract.check(g.insts[op.inst], op.res)
	})
}

// fileCold is the file-cold workload: stream.Open → stream.NewPlanCache →
// core.SolveStream per operation, as a cold coverd-style file solve.
type fileCold struct {
	solveLoad
	seed    uint64
	path    string
	decoded *streamcover.Instance                 // read back from the file, for the references
	refs    map[uint64]streamcover.SetCoverResult // SolveSetCover on decoded, by seed
}

func newFileCold(seed uint64, workers int, dir string) (*fileCold, error) {
	f := &fileCold{seed: seed, path: filepath.Join(dir, fmt.Sprintf("file-cold-%d-%d.scb1", seed, os.Getpid())),
		refs: map[uint64]streamcover.SetCoverResult{},
		solveLoad: solveLoad{workers: workers, base: base{layers: layers{}},
			contract: setCoverContract{alpha: alpha, eps: 0.5, k: fileK}}}
	inst, planted := streamcover.GeneratePlanted(derive(seed, 3), fileN, fileM, fileK)
	if err := checkCover(inst, planted); err != nil {
		return nil, fmt.Errorf("file-cold planted cover: %w", err)
	}
	if err := writeSCB1(f.path, inst); err != nil {
		return nil, err
	}
	f.run(-1) // warm-up: one operation, untimed
	if err := f.ops[0].err; err != nil {
		return nil, fmt.Errorf("file-cold warm-up solve: %w", err)
	}
	return f, nil
}

func writeSCB1(path string, inst *streamcover.Instance) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	if err := streamcover.WriteInstanceBinary(bw, inst); err != nil {
		fh.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (f *fileCold) close() { os.Remove(f.path) }

func (f *fileCold) solve(seed uint64) (streamcover.SetCoverResult, error) {
	src, err := stream.Open(f.path)
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	pc := stream.NewPlanCache(src, 0)
	defer pc.Close()
	cfg := core.Config{Alpha: alpha, OptGuesses: []int{fileK}, Workers: f.workers}
	if f.traced {
		return tracedRun(pc, cfg, core.SolveFileRNG(seed), f.layers)
	}
	res, acc, err := core.SolveStream(pc, cfg, core.SolveFileRNG(seed))
	if err != nil {
		return streamcover.SetCoverResult{}, err
	}
	return streamcover.SetCoverResult{Cover: res.Cover, Guess: res.Guess,
		Passes: acc.Passes, SpaceWords: acc.PeakSpace}, nil
}

func (f *fileCold) run(r int) []float64 {
	n := fileOps
	if r < 0 {
		n = 1
	}
	f.ops = f.ops[:0]
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		op := solveOp{seed: derive(f.seed, 4, uint64(i))}
		t0 := time.Now()
		op.res, op.err = f.solve(op.seed)
		if op.err == nil {
			lat = append(lat, time.Since(t0).Seconds())
		}
		f.ops = append(f.ops, op)
	}
	return lat
}

// check compares every result with streamcover.SolveSetCover on the
// instance decoded from the file (core.SolveFileRNG's seed discipline makes
// the two equal), then applies the contract checks.
func (f *fileCold) check(r int) (int, int) {
	return f.checkOps(r, func(op solveOp) error {
		if f.decoded == nil {
			fh, err := os.Open(f.path)
			if err != nil {
				return err
			}
			f.decoded, err = streamcover.ReadInstance(bufio.NewReader(fh))
			fh.Close()
			if err != nil {
				return err
			}
		}
		want, ok := f.refs[op.seed]
		if !ok {
			var err error
			want, err = streamcover.SolveSetCover(f.decoded, streamcover.WithAlpha(alpha),
				streamcover.WithOptimumHint(fileK), streamcover.WithSeed(op.seed),
				streamcover.WithParallelism(f.workers))
			if err != nil {
				return fmt.Errorf("reference solve: %w", err)
			}
			f.refs[op.seed] = want
		}
		if err := sameSetCover(op.res, want); err != nil {
			return err
		}
		return f.contract.check(f.decoded, op.res)
	})
}
