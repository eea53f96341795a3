package ops

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
)

// This file is the cooperative shared-scan executor: several planned
// queries against the same reader run as ONE morsel pass over the table.
// Each worker claims a row group and drives it through every member
// pipeline in turn, so a page decompressed for the first member is a
// page-cache (or prefetch) hit for the rest — the wave fetches and
// decompresses each page once regardless of how many queries share it.
// This is what makes a multi-user serving layer affordable: K concurrent
// scans cost ~one scan of IO plus K filter/terminal passes over decoded
// morsels that are already hot in cache.

// SharedItem is one member query of a shared wave: a planned predicate
// (nil means select-all) plus the terminal it feeds.
type SharedItem struct {
	Plan *Plan
	Term TermKind
	Col  string
}

// sharedWorker is one pool worker's private state for a whole wave: one
// pipeWorker per member, all carved from the members' own slabs.
type sharedWorker struct {
	ws []*pipeWorker
}

// RunShared executes every item against r in a single morsel-driven pass.
// It returns one result and one error slot per item — a member that fails
// to build or errors mid-scan fails alone; the others complete. The third
// return is fatal: pool submission failure, worker panic, or context
// cancellation, in which case per-item results are not meaningful.
func RunShared(ctx context.Context, r *colstore.Reader, pool *exec.Pool, items []SharedItem) ([]*PipelineResult, []error, error) {
	results := make([]*PipelineResult, len(items))
	errs := make([]error, len(items))
	var (
		members   []*pipeline
		memberIdx []int
	)
	for i, it := range items {
		p, err := buildPipeline(r, pool, it.Plan, it.Term, it.Col, nil, false)
		if err != nil {
			errs[i] = err
			continue
		}
		members = append(members, p)
		memberIdx = append(memberIdx, i)
	}
	if len(members) > 0 {
		if err := runWave(ctx, r, pool, members, memberIdx, results, errs); err != nil {
			return results, errs, err
		}
	}
	return results, errs, ctx.Err()
}

// runWave runs the members as one morsel pass. A member
// error is recorded in its errs slot and the member sits out the rest of
// the wave; only cancellation or a panic aborts the pass itself.
func runWave(ctx context.Context, r *colstore.Reader, pool *exec.Pool, members []*pipeline, memberIdx []int, results []*PipelineResult, errs []error) error {
	nrg := r.NumRowGroups()
	nw := pool.Size()
	if lim := MaxWorkersFrom(ctx); lim > 0 && nw > lim {
		nw = lim
	}
	if nrg > 0 && nw > nrg {
		nw = nrg
	}
	for _, p := range members {
		p.initParts(nrg)
		p.initWorkers(nw)
	}
	var hooks exec.MorselHooks
	if f := buildSharedFetcher(ctx, r, members); f != nil {
		defer f.Close()
		ctx = colstore.ContextWithFetcher(ctx, f)
		for _, p := range members {
			p.fetch = f
		}
		// One release per row group, after ALL members are done with it.
		hooks.OnDone = f.FinishGroup
	}
	if lq := obs.QueryFrom(ctx); lq != nil {
		lq.AddMorsels(nrg, nw)
		prev := hooks.OnDone
		hooks.OnDone = func(m int) {
			if prev != nil {
				prev(m)
			}
			lq.MorselDone()
		}
	}
	failed := make([]atomic.Bool, len(members))
	var errMu sync.Mutex
	states, waveErr := exec.ParallelMorselsLimited(ctx, pool, nrg, nw,
		func(wi int) *sharedWorker {
			sw := &sharedWorker{ws: make([]*pipeWorker, len(members))}
			for j, p := range members {
				sw.ws[j] = p.newWorker(wi)
			}
			return sw
		},
		func(mctx context.Context, sw *sharedWorker, rg int) error {
			for j, p := range members {
				if failed[j].Load() {
					continue
				}
				if merr := p.runMorsel(mctx, sw.ws[j], rg, &p.parts); merr != nil {
					if mctx.Err() != nil {
						// Cancellation surfaces through every member at
						// once; abort the wave instead of failing them all.
						return merr
					}
					if failed[j].CompareAndSwap(false, true) {
						errMu.Lock()
						errs[memberIdx[j]] = merr
						errMu.Unlock()
					}
				}
			}
			return nil
		}, hooks)
	// Regroup the shared states into per-member worker slices so the
	// per-pipeline release and merge paths apply unchanged.
	for j, p := range members {
		mws := make([]*pipeWorker, 0, len(states))
		for _, sw := range states {
			if sw != nil && sw.ws[j] != nil {
				mws = append(mws, sw.ws[j])
			}
		}
		p.workers = mws
		p.releaseWorkers(mws)
	}
	if waveErr != nil {
		return waveErr
	}
	for j, p := range members {
		if errs[memberIdx[j]] == nil {
			results[memberIdx[j]] = p.merge(p.workers)
		}
	}
	return nil
}

// buildSharedFetcher computes the union page schedule across every
// member's first planned stage (the stage whose metadata disposition is
// exact; see buildFetcher) and starts one prefetcher serving the whole
// wave. Pages wanted by several members are scheduled once.
func buildSharedFetcher(ctx context.Context, r *colstore.Reader, members []*pipeline) *colstore.PageFetcher {
	opt, _ := ctx.Value(prefetchKey{}).(prefetchOpt)
	if opt.off {
		return nil
	}
	var scheds []func(rg int) []schedSet
	for _, p := range members {
		switch {
		case len(p.leaves) > 0:
			lf := p.leaves[0]
			if lf.pf.empty || lf.pf.sched == nil {
				continue
			}
			scheds = append(scheds, lf.pf.sched)
		case p.ci >= 0:
			scheds = append(scheds, schedAllPages(r, p.ci))
		}
	}
	if len(scheds) == 0 {
		return nil
	}
	f := colstore.NewPageFetcher(r, opt.cfg)
	scheduled := false
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		byCol := make(map[int]map[int]struct{})
		for _, sched := range scheds {
			for _, s := range sched(rg) {
				set := byCol[s.col]
				if set == nil {
					set = make(map[int]struct{})
					byCol[s.col] = set
				}
				for _, pg := range s.pages {
					set[pg] = struct{}{}
				}
			}
		}
		cols := make([]int, 0, len(byCol))
		for col := range byCol {
			cols = append(cols, col)
		}
		sort.Ints(cols)
		for _, col := range cols {
			set := byCol[col]
			if len(set) == 0 {
				continue
			}
			pages := make([]int, 0, len(set))
			for pg := range set {
				pages = append(pages, pg)
			}
			sort.Ints(pages)
			f.Schedule(rg, col, pages)
			scheduled = true
		}
	}
	if !scheduled {
		return nil
	}
	f.Start(ctx)
	return f
}
