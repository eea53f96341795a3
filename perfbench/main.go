// Command perfbench is CodecDB's end-to-end and per-layer benchmark. It
// builds one workload from a seed, sets it up, measures it for a fixed
// time, checks every answer, and prints one JSON object as the last line
// of standard output:
//
//	perfbench --workload tpch|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from outside each layer
// (timed calls into its exported functions and the counters it already
// exports). See README.md for the workloads and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch space; removed when the run ends
}

// report is a workload's outcome: operation counts, whether every
// output checked out, and the metrics it measured by name.
type report struct {
	attempted, failed int64
	correct           bool
	m                 map[string]float64
}

func newReport() *report { return &report{correct: true, m: map[string]float64{}} }

var workloads = map[string]func(runConfig) (*report, error){
	"tpch":  runTPCH,
	"serve": runServe,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "tpch or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the run's databases")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, workdir string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want tpch or serve)", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	rep, err := fn(runConfig{seed: seed, seconds: seconds, trace: trace == 1, dir: dir})
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs: %d attempted, %d failed\n",
		workload, seed, time.Since(start).Seconds(), rep.attempted, rep.failed)

	specs := endToEnd
	if trace == 1 {
		specs = perLayer()
	}
	out := resultOut{
		Correct:   rep.correct && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.m[s.Name]
		if !ok && trace == 0 {
			return fmt.Errorf("%s did not measure %s", workload, s.Name)
		}
		// A per-layer metric a workload does not exercise reads 0.
		out.Metrics[s.Name] = metricOut{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", workload)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// setupRuns is how many times each workload is set up from an empty
// directory; setup_s is their median and only the last is kept.
const setupRuns = 3

// repeatSetup runs setup setupRuns times, each in a fresh directory,
// tears down all but the last, and returns it with the median set-up
// time in seconds.
func repeatSetup[E any](cfg runConfig, name string, setup func(dir string) (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRuns; i++ {
		dir, err := os.MkdirTemp(cfg.dir, name+"-")
		if err != nil {
			return env, 0, err
		}
		start := time.Now()
		env, err = setup(dir)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return env, 0, fmt.Errorf("setup: %w", err)
		}
		if i < setupRuns-1 {
			teardown(env)
			os.RemoveAll(dir)
		}
	}
	// Write back everything set-up left dirty, here and in earlier runs,
	// so the kernel's writeback does not compete with the measured phase.
	syscall.Sync()
	return env, median(times), nil
}

// latencyMetrics records p50 and p99 of samples (ms) and prints the
// sample count. A percentile with fewer than ten samples beyond it is an
// error: the run was too short to measure it.
func latencyMetrics(rep *report, samples []float64) error {
	d := NewDist(samples)
	for _, p := range []struct {
		name string
		pct  float64
	}{{"p50_ms", 50}, {"p99_ms", 99}} {
		v, ok := d.Percentile(p.pct)
		if !ok {
			return fmt.Errorf("%s: only %d samples, fewer than ten beyond it", p.name, d.N())
		}
		rep.m[p.name] = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: p50/p99 over %d samples\n", d.N())
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
