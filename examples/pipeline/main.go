// Pipeline: a bounded work queue shared by the team, protected by an
// OpenMP lock, plus a critical-region aggregate and an ordered output
// stage. The collector's wait events and per-thread wait IDs quantify
// the synchronization cost — lock waits and critical waits show up as
// events with the exact counts the runtime tracked.
package main

import (
	"fmt"
	"log"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

const items = 400

func main() {
	rt := omp.New(omp.Config{NumThreads: 4})
	defer rt.Close()

	tl, err := tool.AttachRuntime(rt, tool.Options{
		Measure: true,
		Events: []collector.Event{
			collector.EventFork, collector.EventJoin,
			collector.EventThrBeginLkwt, collector.EventThrEndLkwt,
			collector.EventThrBeginCtwt, collector.EventThrEndCtwt,
			collector.EventThrBeginOdwt, collector.EventThrEndOdwt,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	var queue []int
	var qlock omp.Lock
	processed := 0
	var squares int64

	rt.Parallel(func(tc *omp.ThreadCtx) {
		// Stage 1: the master seeds the queue; a single region would
		// work too, but master shows the construct.
		tc.Master(func() {
			for i := 1; i <= items; i++ {
				queue = append(queue, i)
			}
		})
		tc.Barrier()

		// Stage 2: drain the queue under the lock; accumulate under a
		// named critical region.
		for {
			var item int
			qlock.Acquire(tc)
			if len(queue) > 0 {
				item = queue[len(queue)-1]
				queue = queue[:len(queue)-1]
			}
			qlock.Release()
			if item == 0 {
				break
			}
			tc.Critical("aggregate", func() {
				processed++
				squares += int64(item) * int64(item)
			})
		}
		tc.Barrier()

		// Stage 3: ordered emission — iterations print in order even
		// though threads execute them concurrently.
		tc.ForOrdered(4, func(i int, ord *omp.Ordered) {
			ord.Do(func() {
				fmt.Printf("ordered stage %d by thread %d\n", i, tc.ThreadNum())
			})
		})
	})
	tl.Detach()

	wantSquares := int64(items * (items + 1) * (2*items + 1) / 6)
	fmt.Printf("\nprocessed %d items, Σi² = %d (want %d)\n\n", processed, squares, wantSquares)
	if squares != wantSquares || processed != items {
		log.Fatal("pipeline result wrong")
	}

	rep := tl.Report()
	fmt.Println("synchronization events observed by the collector:")
	for _, e := range []collector.Event{
		collector.EventThrBeginLkwt, collector.EventThrBeginCtwt,
		collector.EventThrBeginOdwt,
	} {
		fmt.Printf("  %-28s %d\n", e, rep.Events[e])
	}
	fmt.Println("\nper-thread wait IDs from the thread descriptors:")
	for id := int32(0); id < 4; id++ {
		ti := rt.Collector().Thread(id)
		if ti == nil {
			continue
		}
		fmt.Printf("  thread %d: lock=%d critical=%d ordered=%d barrier=%d\n", id,
			ti.WaitID(collector.WaitLock), ti.WaitID(collector.WaitCritical),
			ti.WaitID(collector.WaitOrdered), ti.WaitID(collector.WaitBarrier))
	}
}
