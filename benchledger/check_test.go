package main

import (
	"slices"
	"strings"
	"testing"

	"streamcover"
)

func plantedResult(t *testing.T) (*streamcover.Instance, []int, setCoverContract, streamcover.SetCoverResult) {
	t.Helper()
	const n, m, k = 512, 64, 4
	inst, planted := streamcover.GeneratePlanted(7, n, m, k)
	c := setCoverContract{alpha: alpha, eps: 0.5, k: k}
	res, err := streamcover.SolveSetCover(inst, streamcover.WithAlpha(alpha), streamcover.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.check(inst, res); err != nil {
		t.Fatalf("an honest result is rejected: %v", err)
	}
	return inst, planted, c, res
}

func TestCheckerRejectsCorruptedSetCover(t *testing.T) {
	inst, planted, c, res := plantedResult(t)
	if err := checkCover(inst, planted); err != nil {
		t.Fatalf("planted cover rejected: %v", err)
	}
	// The planted sets partition the universe, so dropping any one of them
	// leaves its elements uncovered.
	for i := range planted {
		dropped := slices.Delete(slices.Clone(planted), i, i+1)
		if err := checkCover(inst, dropped); err == nil {
			t.Errorf("planted cover without set %d accepted", planted[i])
		}
	}

	bad := map[string]streamcover.SetCoverResult{}
	r := res
	r.Cover = planted[1:]
	bad["dropped set"] = r
	r = res
	r.Passes = 2*alpha + 2
	bad["extra pass"] = r
	r = res
	r.Passes = 0
	bad["no pass"] = r
	r = res
	r.SpaceWords = inst.N - 1
	bad["space below n"] = r
	r = res
	r.Cover = append(slices.Clone(res.Cover), res.Cover[0])
	bad["repeated set"] = r
	r = res
	r.Cover = append(slices.Clone(res.Cover), inst.M())
	bad["set out of range"] = r
	r = res
	r.Cover = make([]int, inst.M())
	for i := range r.Cover {
		r.Cover[i] = i
	}
	bad["cover above (α+ε)(1+ε)k"] = r
	for name, r := range bad {
		if err := c.check(inst, r); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestCheckerRejectsCorruptedMaxCover(t *testing.T) {
	inst, _ := streamcover.GeneratePlanted(5, 512, 64, 4)
	const k = 3
	res, err := streamcover.SolveMaxCoverage(inst, k, streamcover.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMaxCover(inst, k, res); err != nil {
		t.Fatalf("an honest result is rejected: %v", err)
	}
	bad := map[string]streamcover.MaxCoverageResult{}
	r := res
	r.Covered++
	bad["wrong coverage count"] = r
	r = res
	r.Chosen = r.Chosen[1:]
	bad["dropped set"] = r
	r = res
	r.Chosen = append(slices.Clone(res.Chosen), (res.Chosen[0]+1)%inst.M())
	bad["more than k sets"] = r
	r = res
	r.Passes = 2
	bad["extra pass"] = r
	for name, r := range bad {
		if err := checkMaxCover(inst, k, r); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestReferenceComparison(t *testing.T) {
	_, _, _, res := plantedResult(t)
	if err := sameSetCover(res, res); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	for name, mutate := range map[string]func(*streamcover.SetCoverResult){
		"cover":  func(r *streamcover.SetCoverResult) { r.Cover = r.Cover[1:] },
		"guess":  func(r *streamcover.SetCoverResult) { r.Guess++ },
		"passes": func(r *streamcover.SetCoverResult) { r.Passes++ },
		"space":  func(r *streamcover.SetCoverResult) { r.SpaceWords++ },
	} {
		r := res
		r.Cover = slices.Clone(res.Cover)
		mutate(&r)
		if err := sameSetCover(r, res); err == nil || !strings.Contains(err.Error(), "differs") {
			t.Errorf("%s: a differing result compares equal (err %v)", name, err)
		}
	}
	mc := streamcover.MaxCoverageResult{Chosen: []int{1, 2}, Covered: 10, Passes: 1, SpaceWords: 5}
	other := mc
	other.Covered = 11
	if sameMaxCover(mc, mc) != nil || sameMaxCover(other, mc) == nil {
		t.Error("sameMaxCover does not tell coverage counts apart")
	}
}
