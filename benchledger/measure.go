package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload's result, printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable metric lines, then the JSON line.
func (r report) print(w io.Writer, workload string) error {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, correct %t\n", workload, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window accumulates the timed rounds of a run. Only the rounds themselves
// are timed: per-round preparation and result checks happen between them,
// outside the window.
type window struct {
	latencies []float64 // seconds, one per completed operation
	rates     []float64 // completed operations per second, one per round
	cpuPerOp  []float64 // CPU seconds per completed operation, one per round
	ops       int       // operations attempted
	failed    int
	done      int // operations completed
	wall      time.Duration
	allocB    uint64
	mallocs   uint64
}

// workload is a fixed list of operations, repeated in whole rounds. Round
// r's operations are fixed by the seed and r.
type workload interface {
	// prepare readies round r; it runs outside the window.
	prepare(r int) error
	// run executes round r's operations and returns the latencies, in
	// seconds, of those that returned a result.
	run(r int) []float64
	// check validates round r's results outside the window and returns how
	// many operations the round attempted and how many failed (returned an
	// error or a result the checker rejects).
	check(r int) (attempted, failed int)
	// common returns the state every workload keeps.
	common() *base
	// close releases the workload's resources.
	close()
}

// base is the state every workload keeps: whether operations run traced,
// the accounting means of round 0, the traced-mode layer ledger, and how
// many results the checker rejected.
type base struct {
	traced bool
	counts counts
	layers layers
	wrong  int
	logged int
}

func (b *base) common() *base { return b }

// maxLogged bounds the failures a run prints to standard error; they are
// all counted.
const maxLogged = 10

func (b *base) logf(format string, args ...any) {
	if b.logged++; b.logged <= maxLogged {
		fmt.Fprintf(os.Stderr, "benchledger: "+format+"\n", args...)
	}
}

// measure runs whole rounds of wl until the window holds at least d of
// timed work.
func measure(d time.Duration, wl workload) (window, error) {
	var w window
	var before, after runtime.MemStats
	for r := 0; w.wall < d; r++ {
		if err := wl.prepare(r); err != nil {
			return w, err
		}
		runtime.ReadMemStats(&before)
		c0, t0 := cpuTime(), time.Now()
		lat := wl.run(r)
		wall, cpu := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&after)
		w.wall += wall
		w.done += len(lat)
		if len(lat) > 0 {
			w.rates = append(w.rates, float64(len(lat))/wall.Seconds())
			w.cpuPerOp = append(w.cpuPerOp, cpu.Seconds()/float64(len(lat)))
		}
		w.allocB += after.TotalAlloc - before.TotalAlloc
		w.mallocs += after.Mallocs - before.Mallocs
		w.latencies = append(w.latencies, lat...)
		attempted, failed := wl.check(r)
		w.ops += attempted
		w.failed += failed
	}
	return w, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of a few values (set-up repetitions).
func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// endToEnd fills the timing, CPU and allocation metrics of a window.
// Throughput and CPU per operation are medians over rounds, so a burst of
// contention from outside the process moves them less than a total would.
func (w window) endToEnd(m map[string]metric) {
	lat := slices.Clone(w.latencies)
	done := float64(max(w.done, 1))
	m["latency_p50_s"] = metric{quantile(lat, 0.5), "s"}
	m["latency_p90_s"] = metric{quantile(lat, 0.9), "s"}
	m["ops_per_s"] = metric{median(w.rates), "1/s"}
	m["cpu_s_per_op"] = metric{median(w.cpuPerOp), "s"}
	m["alloc_mb_per_op"] = metric{float64(w.allocB) / 1e6 / done, "MB"}
	m["allocs_per_op"] = metric{float64(w.mallocs) / done, "objects"}
}

// mean accumulates a mean over observations.
type mean struct {
	sum float64
	n   int
}

func (a *mean) add(v float64) { a.sum += v; a.n++ }

func (a mean) value() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// counts holds the per-round means of the algorithm's own accounting; they
// are taken over the first round, whose operation list a seed fixes, so
// they repeat exactly between runs of one seed whatever the run length.
type counts struct {
	space, passes, cover mean
}

func (c *counts) fill(m map[string]metric) {
	m["space_words"] = metric{c.space.value(), "words"}
	m["passes"] = metric{c.passes.value(), "passes"}
	m["cover_sets"] = metric{c.cover.value(), "sets"}
}
