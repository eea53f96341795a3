package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"codecdb/internal/obs"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: fewer, and the value is one or two outliers.
const minTail = 10

// Dist is a sorted set of latency samples.
type Dist struct{ sorted []float64 }

// NewDist copies and sorts samples.
func NewDist(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{sorted: s}
}

// N is the sample count.
func (d Dist) N() int { return len(d.sorted) }

// Percentile returns the nearest-rank p-th percentile (0 < p < 100). ok is
// false, and the percentile omitted, when fewer than ten samples lie
// beyond it.
func (d Dist) Percentile(p float64) (v float64, ok bool) {
	n := len(d.sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, false
	}
	return d.sorted[rank-1], true
}

// Mean is the arithmetic mean (0 for no samples).
func (d Dist) Mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.sorted {
		s += v
	}
	return s / float64(len(d.sorted))
}

// median of a small set of repeated measurements (set-up times, kernel
// repetitions); no tail rule applies.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0 (a layer the workload did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Snapshot is one reading of a metrics registry: every exposed series
// (counters, gauges, and each histogram's _bucket/_sum/_count series)
// keyed by its full series name.
type Snapshot map[string]float64

// ReadRegistry snapshots r through its Prometheus text exposition, the
// same view a /metrics scrape gets.
func ReadRegistry(r *obs.Registry) (Snapshot, error) {
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		return nil, fmt.Errorf("read registry: %w", err)
	}
	s := Snapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("read registry: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("read registry: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// Sub returns the per-phase delta after − before for every series in
// after; series born during the phase count from zero.
func (s Snapshot) Sub(before Snapshot) Snapshot {
	d := make(Snapshot, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// HistMean is the mean observation of histogram name (0 when empty).
func (s Snapshot) HistMean(name string) float64 {
	return ratio(s[name+"_sum"], s[name+"_count"])
}

// HistQuantile estimates the q-quantile of histogram name from its
// cumulative buckets, interpolating linearly inside the bucket the rank
// falls in (the estimate Prometheus' histogram_quantile makes). Only
// unlabelled histograms are read. ok is false when the histogram saw no
// observations.
func (s Snapshot) HistQuantile(name string, q float64) (v float64, ok bool) {
	type bucket struct{ le, cum float64 }
	prefix := name + `_bucket{le="`
	var bs []bucket
	for k, cum := range s {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, `"}`) {
			continue
		}
		le, err := strconv.ParseFloat(k[len(prefix):len(k)-2], 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, cum})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0, false
	}
	rank := q * bs[len(bs)-1].cum
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo, true // the +Inf bucket clamps to the highest finite bound
			}
			if b.cum == below {
				return b.le, true
			}
			return lo + (b.le-lo)*(rank-below)/(b.cum-below), true
		}
		lo, below = b.le, b.cum
	}
	return lo, true
}

// resetPeakRSS drops freed heap back to the OS and restarts the kernel's
// VmHWM high-water mark, so the next peakRSSMB covers only what follows.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return // peakRSSMB then covers the whole process; noted in the README
	}
	defer f.Close()
	f.Write([]byte("5"))
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
