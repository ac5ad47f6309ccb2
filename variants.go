package cgct

// Sweep execution: every request of a sweep runs as its own simulation
// (RunContext over the shared compiled trace, with its own cursor) on a
// bounded pool of worker goroutines. Simulator instances share no
// mutable state, so every result is bit-identical to the same request
// run alone, for any pool size — determinism is the contract that makes
// this safe (see DESIGN.md §11).

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cgct/internal/workload"
)

// RunRequest is one point of a sweep: a benchmark plus the machine
// options to simulate it under.
type RunRequest struct {
	Benchmark string
	Options   Options
}

// Sched tunes the sweep scheduler. The zero value is the default:
// GOMAXPROCS worker goroutines. Scheduling choices never affect results —
// only wall-clock time.
type Sched struct {
	// Parallelism bounds the simulations executing concurrently (<=0
	// means GOMAXPROCS).
	Parallelism int
}

// RunVariants simulates one benchmark under each of the given option
// sets, spreading the runs across GOMAXPROCS goroutines. Results are
// positionally aligned with opts and bit-identical to calling Run once
// per element.
func RunVariants(ctx context.Context, benchmark string, opts []Options) ([]*Result, error) {
	reqs := make([]RunRequest, len(opts))
	for i, o := range opts {
		reqs[i] = RunRequest{Benchmark: benchmark, Options: o}
	}
	return RunAll(ctx, reqs, Sched{})
}

// RunAll executes every request as its own simulation on
// min(sched.Parallelism, len(reqs)) worker goroutines, which claim
// requests longest first (processors × ops per processor) so the tail of
// the schedule is short. Each run honours its Options.SimParallelism.
// Results align positionally with reqs; on any error the whole sweep
// aborts and the results are invalid. Every result is bit-identical to a
// sequential Run of the same request, for any Sched.
func RunAll(ctx context.Context, reqs []RunRequest, sched Sched) ([]*Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	par := sched.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	order := make([]int, len(reqs))
	cost := make([]int64, len(reqs))
	for i, rq := range reqs {
		_, o := buildConfig(rq.Options)
		ops := o.OpsPerProc
		if ops <= 0 {
			ops = workload.DefaultOpsPerProc
		}
		order[i], cost[i] = i, int64(o.Processors)*int64(ops)
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	results := make([]*Result, len(reqs))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < min(par, len(reqs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) || runCtx.Err() != nil {
					return
				}
				i := order[n]
				res, err := RunContext(runCtx, reqs[i].Benchmark, reqs[i].Options)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
