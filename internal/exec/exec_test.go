package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAll(t *testing.T) {
	p := NewPool(4)
	var count int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { atomic.AddInt64(&count, 1) })
	}
	p.Wait()
	if count != 100 {
		t.Fatalf("ran %d tasks", count)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var cur, max int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		p.Submit(func() {
			c := atomic.AddInt64(&cur, 1)
			mu.Lock()
			if c > max {
				max = c
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
		})
	}
	p.Wait()
	if max > 3 {
		t.Fatalf("observed %d concurrent tasks in pool of 3", max)
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	p := NewPool(4)
	covered := make([]int32, 1000)
	p.ParallelChunks(1000, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	p.ParallelChunks(0, func(int, int) { t.Fatal("empty range should not call fn") })
}

func TestParallelMapPreservesOrder(t *testing.T) {
	p := NewPool(8)
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	out, err := ParallelMap(p, in, func(v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestSubmitPanicSurfacesInWait(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() { panic("kaboom") })
	err := p.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait() = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	// The error is cleared: a reused pool starts clean.
	p.Submit(func() {})
	if err := p.Wait(); err != nil {
		t.Fatalf("second Wait() = %v", err)
	}
}

func TestSubmitDoesNotLeakGoroutinesUnderSaturation(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		p.Submit(func() { <-release })
	}
	before := runtime.NumGoroutine()
	// Submitting into a saturated pool must block the submitter rather
	// than park one goroutine per pending task.
	go func() {
		for i := 0; i < 200; i++ {
			p.Submit(func() {})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d under saturation", before, after)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitCtxCancelledWhileSaturated(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	p.Submit(func() { <-release })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.SubmitCtx(ctx, func() { t.Error("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx = %v, want context.Canceled", err)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelChunksErrPropagatesFirstError(t *testing.T) {
	p := NewPool(4)
	want := errors.New("block failed")
	err := p.ParallelChunksErr(context.Background(), 1000, func(start, end int) error {
		if start == 0 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelChunksErrCapturesPanic(t *testing.T) {
	p := NewPool(4)
	err := p.ParallelChunksErr(context.Background(), 100, func(start, end int) error {
		panic("chunk panic")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// The panic stayed local to the chunk: pool-level Wait is clean.
	if werr := p.Wait(); werr != nil {
		t.Fatalf("Wait() = %v", werr)
	}
}

func TestParallelChunksErrHonorsCancelledContext(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := p.ParallelChunksErr(ctx, 1000, func(start, end int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d chunks ran under a cancelled context", ran)
	}
}
