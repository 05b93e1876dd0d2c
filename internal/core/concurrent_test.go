package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tanglefind/internal/generate"
)

// TestConcurrentFindSharedNetlist is the invariant the serving layer
// depends on: one immutable *Netlist may be analyzed from many
// goroutines at once — through concurrent one-shot Find calls and
// through one shared Finder — with identical, deterministic results.
// Run under -race (the CI race shard does) to make the check real.
func TestConcurrentFindSharedNetlist(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 500}},
		Seed:   33,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 1500
	opt.Workers = 2

	ref, err := Find(nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := gtlHash(ref)

	const goroutines = 4
	ctx := context.Background()

	// Concurrent one-shot Find calls over the same shared netlist, each
	// goroutine running it twice.
	var wg sync.WaitGroup
	results := make([][]*Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for range 2 {
				res, err := Find(nl, opt)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, res := range results[g] {
			if got := gtlHash(res); got != want {
				t.Errorf("goroutine %d result %d diverged: %x != %x", g, i, got, want)
			}
		}
	}

	// Concurrent runs on one shared Finder draw from one state pool.
	f, err := NewFinder(nl)
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]*Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shared[g], errs[g] = f.Find(ctx, opt)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("shared finder goroutine %d: %v", g, errs[g])
		}
		if got := gtlHash(shared[g]); got != want {
			t.Errorf("shared finder goroutine %d diverged", g)
		}
	}
}

// TestRunSeedPool drives the seed pool directly. On every (n, workers)
// shape each index runs exactly once and the completion flags and
// per-worker counts account for all of them. A cancel inside fn stops
// the claiming: each other worker may start at most the one index it
// claimed before seeing the cancel, and the flags mark exactly the
// indexes that ran.
func TestRunSeedPool(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		n, workers int
		cancelAt   int // cancel once this many indexes started; 0 never
	}{
		{"empty", 0, 4, 0},
		{"one", 1, 1, 0},
		{"fewer seeds than workers", 3, 8, 0},
		{"sequential", 64, 1, 0},
		{"many seeds per worker", 500, 4, 0},
		{"cancel inside fn", 1000, 4, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opt := DefaultOptions()
			opt.Workers = tc.workers
			ran := make([]atomic.Int32, tc.n)
			var started, afterCancel atomic.Int32
			completed, sched, _ := f.runSeedPool(ctx, &opt, tc.n, func(ws *workerState, k int) bool {
				if ctx.Err() != nil {
					afterCancel.Add(1)
				}
				if started.Add(1) == int32(tc.cancelAt) {
					cancel()
				}
				runtime.Gosched()
				ran[k].Add(1)
				return false
			})

			if len(completed) != tc.n {
				t.Fatalf("len(completed) = %d, want %d", len(completed), tc.n)
			}
			total := 0
			for k := range ran {
				r := ran[k].Load()
				if r > 1 || (tc.cancelAt == 0 && r != 1) {
					t.Errorf("index %d ran %d times", k, r)
				}
				if completed[k] != (r == 1) {
					t.Errorf("index %d: completed=%v but ran %d times", k, completed[k], r)
				}
				total += int(r)
			}
			if tc.cancelAt > 0 {
				if total >= tc.n {
					t.Errorf("cancel did not stop the pool: all %d indexes ran", tc.n)
				}
				if a := int(afterCancel.Load()); a > tc.workers-1 {
					t.Errorf("%d indexes started after the cancel, want at most %d", a, tc.workers-1)
				}
			}

			if want := min(tc.workers, tc.n); sched.Workers != want || len(sched.WorkerSeeds) != want {
				t.Errorf("sched reports %d workers and %d seed counts, want %d", sched.Workers, len(sched.WorkerSeeds), want)
			}
			var sum int64
			for _, c := range sched.WorkerSeeds {
				sum += c
			}
			if sum != int64(total) {
				t.Errorf("Σ WorkerSeeds = %d, want %d", sum, total)
			}
		})
	}
}
