package tool_test

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"goomp/internal/collector"
	"goomp/internal/omp"
	"goomp/internal/perf"
	. "goomp/internal/tool"
)

// sharedRegion is one region site reached from two call paths.
//
//go:noinline
func sharedRegion(rt *omp.RT) { rt.Parallel(func(tc *omp.ThreadCtx) {}) }

//go:noinline
func joinPathA(rt *omp.RT) { sharedRegion(rt) }

//go:noinline
func joinPathB(rt *omp.RT) { sharedRegion(rt) }

// TestJoinStacksDistinguishCallPaths pins that join stacks are keyed
// by the whole call path, not the region site: one site reached from
// two callers must store two distinct stacks, each naming its caller,
// on every repeat.
func TestJoinStacksDistinguishCallPaths(t *testing.T) {
	rt := omp.New(omp.Config{NumThreads: 2})
	defer rt.Close()
	tl, err := AttachRuntime(rt, FullMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Detach()
	const reps = 4
	for i := 0; i < reps; i++ {
		joinPathA(rt)
		joinPathB(rt)
	}

	var master bytes.Buffer
	err = tl.WriteTraces(func(thread int32) (io.Writer, error) {
		if thread == 0 {
			return &master, nil
		}
		return io.Discard, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := perf.ReadTraceStream(&master)
	if err != nil {
		t.Fatal(err)
	}
	var stacks [][]uintptr
	sites := map[uint64]bool{}
	for _, s := range buf.Samples() {
		if collector.Event(s.Event) == collector.EventJoin {
			stacks = append(stacks, buf.Stack(s.StackID))
			sites[s.Site] = true
		}
	}
	if len(stacks) != 2*reps || len(sites) != 1 {
		t.Fatalf("%d join stacks over %d sites, want %d over 1", len(stacks), len(sites), 2*reps)
	}
	for i, st := range stacks {
		want, other := "joinPathA", "joinPathB"
		if i%2 == 1 {
			want, other = other, want
		}
		var funcs []string
		for _, fr := range perf.Resolve(st) {
			funcs = append(funcs, fr.Func)
		}
		all := strings.Join(funcs, " ")
		if !strings.Contains(all, want) || strings.Contains(all, other) {
			t.Fatalf("join %d stack %v, want %s and not %s", i, funcs, want, other)
		}
		if !slices.Equal(st, stacks[i%2]) {
			t.Fatalf("join %d stack differs from the first join on its path", i)
		}
	}
}

// BenchmarkJoinCallback times one JOIN event through the collector into
// the tool with join stacks on: dispatch, counter read, stack capture
// and record. Traces are reset outside the timer so memory stays flat.
func BenchmarkJoinCallback(b *testing.B) {
	c := collector.New()
	ti := collector.NewThreadInfo(0)
	c.BindThread(ti)
	tl, err := AttachCollector(c, Options{Measure: true, JoinStacks: true, BufferCap: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer tl.Detach()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<14) == 0 && i > 0 {
			b.StopTimer()
			tl.ResetTraces()
			b.StartTimer()
		}
		c.Event(ti, collector.EventJoin)
	}
}
