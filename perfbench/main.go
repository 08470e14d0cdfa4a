// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed host-time budget, checks every simulated output for
// correctness, and prints one JSON line of metrics as the last line of its
// standard output: the end-to-end metrics with --trace 0, the per-layer
// split with --trace 1. METRICS.md describes the workloads, the metrics and
// which layer each one measures. Build and run it through run.sh:
//
//	bash perfbench/run.sh --workload fig7-inproc --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// workers is the concurrency of every workload that runs jobs in parallel:
// the experiment runner's pool and the service's worker pool. The benchmark
// host has two CPUs; one process never runs more simulations than that.
const workers = 2

// warmJobs is how many warm jobs a pass requests at least: its warm half is
// repeated, at least warmMinRepeats times, until it has made that many, so
// the warm latency percentiles rest on enough samples.
const (
	warmJobs       = 1365
	warmMinRepeats = 5
)

// warmRepeats is how many times a pass of n jobs repeats its warm half.
func warmRepeats(n int) int {
	return max(warmMinRepeats, (warmJobs+n-1)/max(n, 1))
}

// warmStart collects garbage before a warm repeat. Warm requests are short
// and allocate, so where the collector's cycles fall among them sets the
// tail; starting every repeat from a collected heap puts them in the same
// place each time.
func warmStart() { runtime.GC() }

// setupSamples repeats a set-up measurement at least five times and for at
// least two seconds; setup_s is the median sample. Each sample starts from
// a collected heap.
func setupSamples(setup func() (time.Duration, error)) ([]float64, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || time.Since(start) < 2*time.Second {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		samples = append(samples, seconds(d))
	}
	return samples, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and its operation tally.
type bench struct {
	seed     uint64
	budget   time.Duration
	deadline time.Time
	workdir  string

	attempted, failed int
	metrics           map[string]metric
}

// check tallies one correctness check; a failed one is printed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// jobs adds a pass's job tally.
func (b *bench) jobs(l *jobLog) {
	b.attempted += l.attempted()
	b.failed += l.failed
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// more reports whether another pass of the given duration still fits in the
// measurement budget. The first pass always runs.
func (b *bench) more(passes int, last time.Duration) bool {
	return passes == 0 || time.Now().Add(last).Before(b.deadline)
}

// workload is one named traffic mix. run produces the end-to-end metrics,
// traced the per-layer split.
type workload struct {
	run, traced func(*bench) error
}

var workloads = map[string]workload{
	"fig7-inproc": {run: fig7Run, traced: fig7Traced},
	"splash8":     {run: splashRun, traced: splashTraced},
	"served-fig7": {run: servedRun, traced: servedTraced},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig7-inproc, splash8 or served-fig7")
		seed    = flag.Uint64("seed", 1, "workload seed; 0 selects the default seed 1")
		secs    = flag.Int("seconds", 30, "host seconds of measurement")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory for the service's disk cache")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	budget := time.Duration(*secs) * time.Second
	b := &bench{seed: *seed, budget: budget, deadline: time.Now().Add(budget),
		workdir: *workdir, metrics: map[string]metric{}}
	run := w.run
	if *traced == 1 {
		run = w.traced
	}
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Printf("%-32s %14.6g ratio\n", "failed_ratio", float64(b.failed)/float64(max(b.attempted, 1)))
	line, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak samples the live Go heap every millisecond until stopped and
// keeps the largest reading.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapPeak collects garbage, so every pass starts from its live set,
// and starts sampling.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// mb stops sampling and returns the peak in MiB.
func (h *heapPeak) mb() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
