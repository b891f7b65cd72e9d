// Command benchledger is streamcover's performance ledger: one benchmark
// that runs fixed workloads through the solver, checks every result against
// computations made apart from the solver, and prints end-to-end metrics
// (untraced) or per-layer metrics (traced) by name and unit.
//
//	go run . --workload grid-mem --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object per workload with the
// keys correct, attempted, failed and metrics. See README.md for the
// workloads, metrics and layer map.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

var workloadNames = []string{"grid-mem", "file-cold", "serve-mixed"}

type options struct {
	seed    uint64
	seconds float64
	traced  bool
	workers int
	dir     string
}

func main() {
	var (
		names   = flag.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "workload seed: all inputs and solver seeds derive from it")
		seconds = flag.Float64("seconds", 30, "timed work per run, in seconds (whole rounds are run)")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		workers = flag.Int("workers", 2, "guess-grid workers for grid-mem and file-cold")
		dir     = flag.String("dir", ".bench_build/benchledger", "scratch directory for generated instance files")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 || *workers < 1 {
		fail(fmt.Errorf("--seconds and --workers must be positive"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *traced == 1, workers: *workers, dir: *dir}
	for _, name := range strings.Split(*names, ",") {
		rep, err := runWorkload(name, opt)
		if err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		if err := rep.print(os.Stdout, name); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchledger: %v\n", err)
	os.Exit(1)
}

func build(name string, opt options) (workload, error) {
	switch name {
	case "grid-mem":
		return newGridMem(opt.seed, opt.workers)
	case "file-cold":
		return newFileCold(opt.seed, opt.workers, opt.dir)
	case "serve-mixed":
		return newServeMixed(opt.seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// runWorkload sets the workload up setupReps times, then measures it. The
// traced run measures half its window untraced and half traced, and prints
// the difference of their median latencies as the tracing overhead.
func runWorkload(name string, opt options) (report, error) {
	var setups []float64
	var wl workload
	for i := 0; i < setupReps; i++ {
		if wl != nil {
			wl.close()
		}
		t0 := time.Now()
		var err error
		if wl, err = build(name, opt); err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.close()
	runtime.GC()

	d := time.Duration(opt.seconds * float64(time.Second))
	m := map[string]metric{}
	b := wl.common()
	var w window
	var err error
	if !opt.traced {
		if w, err = measure(d, wl); err != nil {
			return report{}, err
		}
		w.endToEnd(m)
		b.counts.fill(m)
		m["setup_s"] = metric{median(setups), "s"}
	} else {
		if w, err = measure(d/2, wl); err != nil {
			return report{}, err
		}
		b.traced = true
		tw, err := measure(d/2, wl)
		if err != nil {
			return report{}, err
		}
		fmt.Printf("%s tracing overhead: %+.6f s on median latency (traced %.6f s over %d ops, untraced %.6f s over %d ops)\n",
			name, quantile(tw.latencies, 0.5)-quantile(w.latencies, 0.5),
			quantile(tw.latencies, 0.5), len(tw.latencies), quantile(w.latencies, 0.5), len(w.latencies))
		w.ops += tw.ops
		w.failed += tw.failed
		b.layers.fill(m)
	}
	return report{Correct: b.wrong == 0, Attempted: w.ops, Failed: w.failed, Metrics: m}, nil
}

// derive mixes the workload seed with an input's coordinates (splitmix64),
// so every input and solver seed of a run follows from --seed.
func derive(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}
