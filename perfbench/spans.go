package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"codecdb"
	"codecdb/internal/obs"
)

// spanTotals sums span time by operator family over span trees. Times
// are inclusive: a Build span's total also appears under the Plan and
// Filter spans nested in it.
type spanTotals struct {
	plan, filter, terminal, build, probe, sort time.Duration
	wait, decompress, scan                     time.Duration
}

func (t *spanTotals) add(s *obs.Span, inPipeline bool) {
	name := s.Name()
	switch {
	case name == "Plan":
		t.plan += s.Duration()
	case strings.HasPrefix(name, "Filter["):
		t.filter += s.Duration()
	case strings.HasPrefix(name, "Build["):
		t.build += s.Duration()
	case strings.HasPrefix(name, "Join["):
		t.probe += s.Duration()
	case strings.HasPrefix(name, "Sort["):
		t.sort += s.Duration()
	case inPipeline && name != "Prepare":
		t.terminal += s.Duration() // Count, Gather[...], GroupBy[...], ...
	}
	for _, d := range s.Details() {
		t.addStageTimes(d)
	}
	pipeline := strings.HasPrefix(name, "Pipeline[")
	for _, c := range s.Children() {
		t.add(c, pipeline)
	}
}

// addStageTimes reads a stage's "time: wait=… decompress=… scan=…" detail.
func (t *spanTotals) addStageTimes(detail string) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(detail), "time: ")
	if !ok {
		return
	}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			continue
		}
		switch k {
		case "wait":
			t.wait += d
		case "decompress":
			t.decompress += d
		case "scan":
			t.scan += d
		}
	}
}

// replaySpans replays every request of the serve pool once, in process,
// through the library query it stands for, with a span tree attached
// (Query.AnalyzeTrace for counts, the same context span for the other
// terminals), and records the mean time per request of each operator
// family. It opens the served files a second time without the page
// cache, so every stage reads and decompresses its pages and reports
// how its time splits between waiting, decompressing and scanning.
func replaySpans(env *serveEnv, rep *report) error {
	db, err := codecdb.Open(env.dir)
	if err != nil {
		return err
	}
	defer db.Close()
	var t spanTotals
	reqs := env.pool()
	for _, r := range reqs {
		q, err := r.query(db)
		if err != nil {
			return err
		}
		var root *obs.Span
		if r.terminal == "count" {
			root, _, err = q.AnalyzeTrace()
		} else {
			root = obs.NewSpan("replay")
			_, err = r.answerOf(q.WithContext(obs.ContextWithSpan(context.Background(), root)))
			root.End()
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.body, err)
		}
		t.add(root, false)
	}
	n := float64(len(reqs))
	per := func(d time.Duration) float64 { return ms(d) / n }
	rep.m["ops.plan_ms"] = per(t.plan)
	rep.m["ops.filter_ms"] = per(t.filter)
	rep.m["ops.terminal_ms"] = per(t.terminal)
	rep.m["ops.wait_ms"] = per(t.wait)
	rep.m["ops.decompress_ms"] = per(t.decompress)
	rep.m["ops.scan_ms"] = per(t.scan)
	rep.m["ops.build_ms"] = per(t.build)
	rep.m["ops.probe_ms"] = per(t.probe)
	rep.m["ops.sort_ms"] = per(t.sort)
	return nil
}
