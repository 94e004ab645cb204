package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"goomp/internal/analysis"
	"goomp/internal/collector"
	"goomp/internal/degrade"
	"goomp/internal/ingest"
	"goomp/internal/omp"
	"goomp/internal/perf"
	"goomp/internal/tool"
)

// passKind is what one pass attaches.
type passKind int

const (
	passOff       passKind = iota // no tool: ORA off
	passCallbacks                 // callbacks registered, nothing measured or stored (§V-B)
	passFull                      // the workload's profiling configuration
	passTraced                    // passFull with every layer hook instrumented
)

func (k passKind) String() string {
	return [...]string{"off", "callbacks", "on", "traced"}[k]
}

// passResult is one pass's timings, counts and verdict.
type passResult struct {
	kind passKind
	out  outcome

	setup, detach, drain time.Duration
	report, decode       time.Duration

	events      uint64 // dispatched for registered events
	stored      uint64 // runtime-event samples read back from storage
	missing     uint64 // events absent from storage (all of them when a check fails)
	shed        uint64 // events the governor dropped by design, part of missing
	storedBytes uint64 // trace bytes in storage
	stacks      uint64
	sites       int    // region sites in the profile built from storage
	failure     string // first failed check, "" when the pass is good

	rep     *tool.Report
	run     *ingest.RunInfo
	rt      rtDelta // Go runtime activity during the program
	hooks   *hooks
	sealLag time.Duration
	encode  time.Duration // re-encoding the stored samples, traced passes only
	rssMB   float64       // peak resident memory of the pass
}

// bench runs passes of one workload under a scratch directory.
type bench struct {
	w     *workload
	root  string
	npass int
}

func (b *bench) passDir() (string, error) {
	b.npass++
	dir := filepath.Join(b.root, fmt.Sprintf("pass-%d", b.npass))
	return dir, os.MkdirAll(dir, 0o755)
}

// offPass runs the program with no tool attached.
func (b *bench) offPass() passResult {
	rt := omp.New(omp.Config{NumThreads: teamSize})
	defer rt.Close()
	before := readRuntime()
	out := b.w.program(rt)
	r := passResult{kind: passOff, out: out, rt: before.until(readRuntime())}
	if !out.verified {
		r.failure = "program verification failed"
	}
	return r
}

// onPass runs the program with a tool attached. An error is a failure
// of the benchmark itself; a failed check of the program's output is
// reported in passResult.failure.
func (b *bench) onPass(kind passKind) (passResult, error) {
	r := passResult{kind: kind}
	dir, err := b.passDir()
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	var h *hooks
	if kind == passTraced {
		h = &hooks{}
		r.hooks = h
	}

	start := time.Now()
	opts := b.w.options()
	sink := b.w.sink
	if kind == passCallbacks {
		opts = tool.Options{Events: opts.Events}
	}
	var srv *ingest.Server
	var hs *handshake
	if kind != passCallbacks {
		switch sink {
		case sinkStream:
			opts.StreamDir = filepath.Join(dir, "stream")
			if h != nil {
				opts.OpenTraceFile = func(path string) (io.WriteCloser, error) {
					f, err := os.Create(path)
					if err != nil {
						return nil, err
					}
					return h.countFile(f), nil
				}
			}
		case sinkPsxd:
			sopts := ingest.Options{Dir: filepath.Join(dir, "psxd")}
			if h != nil {
				sopts.FS = ingestFS{h: h}
			}
			if srv, err = ingest.Serve("127.0.0.1:0", sopts); err != nil {
				return r, err
			}
			defer srv.Close()
			hs = newHandshake(h)
			opts.IngestAddr = srv.Addr()
			opts.IngestRun = "bench"
			opts.IngestDurable = true
			opts.DialIngest = hs.dial
			// Durable acks wait on psxd's fsyncs, so chunks queue in
			// the sink faster than psxd acks them. The queue holds a
			// whole pass (about 2,000 chunks), so the pass measures
			// the wire and psxd rather than the sink's overflow path.
			opts.IngestPendingDepth = 4096
		}
	}
	if h != nil {
		opts.WrapCallback = h.wrapCallback
	}
	rt := omp.New(omp.Config{NumThreads: teamSize})
	defer rt.Close()
	tl, err := tool.AttachRuntime(rt, opts)
	if err != nil {
		return r, err
	}
	defer tl.Detach()
	if hs != nil {
		select {
		case <-hs.ready:
		case <-time.After(10 * time.Second):
			return r, fmt.Errorf("psxd handshake did not complete")
		}
	}
	r.setup = time.Since(start)

	before := readRuntime()
	r.out = b.w.program(rt)
	r.rt = before.until(readRuntime())

	drainStart := time.Now()
	tl.Detach()
	r.detach = time.Since(drainStart)
	traceDir := opts.StreamDir
	if kind != passCallbacks {
		switch sink {
		case sinkAtExit:
			traceDir = filepath.Join(dir, "traces")
			if err := writeTraces(tl, traceDir, h); err != nil {
				return r, err
			}
		case sinkPsxd:
			info, err := awaitComplete(srv, "bench")
			if err != nil {
				return r, err
			}
			if h != nil {
				r.sealLag = time.Since(time.Unix(0, h.lastWire.Load()))
			}
			r.run = &info
			traceDir = info.Dir
		}
	}
	r.drain = time.Since(drainStart)

	col := rt.Collector()
	for _, e := range registeredEvents(opts) {
		r.events += col.EventCount(e)
	}
	if !r.out.verified {
		r.failure = "program verification failed"
	}
	if kind == passCallbacks {
		return r, nil
	}
	r.rep = tl.Report()
	if err := tl.StreamError(); err != nil && r.failure == "" {
		r.failure = "stream: " + err.Error()
	}
	if err := readBack(&r, traceDir, traceEncoding(opts)); err != nil {
		return r, err
	}
	check(&r)
	return r, nil
}

func registeredEvents(opts tool.Options) []collector.Event {
	if opts.Events != nil {
		return opts.Events
	}
	return tool.DefaultEvents()
}

// writeTraces stores every per-thread buffer the way ompprof -trace
// does: one file per thread.
func writeTraces(tl *tool.Tool, dir string, h *hooks) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var files []*os.File
	err := tl.WriteTraces(func(thread int32) (io.Writer, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace.%d.psxt", thread)))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if h != nil {
			return h.countFile(f), nil
		}
		return f, nil
	})
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// awaitComplete waits until psxd lists the run as complete: sealed,
// with every chunk it acknowledged durable on disk.
func awaitComplete(srv *ingest.Server, id string) (ingest.RunInfo, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, info := range srv.Runs() {
			if info.ID == id && info.Complete {
				return info, nil
			}
		}
		if time.Now().After(deadline) {
			return ingest.RunInfo{}, fmt.Errorf("psxd did not complete run %q", id)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// traceEncoding is the encoding the tool writes with opts, the way
// Tool.WriteTraces chooses it.
func traceEncoding(opts tool.Options) perf.Encoding {
	return perf.Encoding{V2: opts.TraceV2 || opts.TraceCompress, Flate: opts.TraceCompress}
}

// readBack reads the stored traces back and builds the site profile
// and timelines with the calls ompreport makes. Traced passes also
// time re-encoding the samples with enc.
func readBack(r *passResult, dir string, enc perf.Encoding) error {
	start := time.Now()
	paths, err := perf.FindTraceFiles(dir)
	if err != nil {
		return err
	}
	var samples []perf.Sample
	var bufs []*perf.TraceBuffer
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		buf, err := perf.ReadTraceStream(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		samples = append(samples, buf.Samples()...)
		bufs = append(bufs, buf)
	}
	r.decode = time.Since(start)
	sites := perf.RegionProfileBySite(samples, int32(collector.EventFork), int32(collector.EventJoin))
	perf.StealProfileBySite(samples, int32(collector.EventChunkSteal), int32(collector.EventTaskSteal))
	tls := analysis.Timelines(samples)
	analysis.Report(io.Discard, tls)
	analysis.BarrierImbalance(tls)
	analysis.GovernorSteps(samples)
	r.report = time.Since(start)
	r.sites = len(sites)

	for _, s := range samples {
		if collector.Event(s.Event) != collector.EventGovernor {
			r.stored++
		}
	}
	for _, buf := range bufs {
		r.stacks += uint64(buf.NumStacks())
	}
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.storedBytes += uint64(st.Size())
	}
	if r.kind == passTraced {
		encStart := time.Now()
		for _, buf := range bufs {
			if err := perf.WriteTraceEnc(io.Discard, buf, enc); err != nil {
				return err
			}
		}
		r.encode = time.Since(encStart)
	}
	return nil
}

// check applies the per-pass conditions: the program verified, every
// dispatched event is in storage or in the program's drop accounting,
// and psxd sealed the run with every sample the client produced.
//
// Once the overhead governor steps to shed-events or counters-only,
// the tool drops events by design and no Report counter records them.
// Such a pass is not failed: the events missing from storage are
// counted as governor shedding (and in loss_frac) instead, and the
// stored trace may hold no complete region.
func check(r *passResult) {
	rep := r.rep
	drops := rep.Dropped + rep.StreamDiscardedSamples + rep.ForcedDropSamples +
		rep.IngestDroppedSamples + rep.IngestStorageSamples + rep.Throttled
	fail := func(format string, args ...any) {
		if r.failure == "" {
			r.failure = fmt.Sprintf(format, args...)
		}
	}
	shedding := governorShed(rep)
	switch accounted := r.stored + drops; {
	case accounted < r.events && shedding:
		r.shed = r.events - accounted
	case accounted != r.events:
		fail("stored %d samples + %d reported drops != %d dispatched events", r.stored, drops, r.events)
	}
	if r.sites == 0 && r.stored > 0 && !shedding {
		fail("stored trace has samples but no region sites")
	}
	if info := r.run; info != nil {
		switch {
		case !info.Complete:
			fail("psxd run not complete")
		case info.Quarantined:
			fail("psxd run quarantined")
		case info.Samples != rep.IngestProducedSamples:
			fail("psxd stored %d samples, client produced %d (sink dropped %d)",
				info.Samples, rep.IngestProducedSamples, rep.IngestDroppedSamples)
		}
	}
	if r.failure != "" {
		r.missing = r.events
		return
	}
	r.missing = drops + r.shed
}

// governorShed reports whether the governor reached a level at which
// the tool stops storing some or all events.
func governorShed(rep *tool.Report) bool {
	for _, st := range rep.GovernorSteps {
		if st.To >= degrade.LevelShedEvents {
			return true
		}
	}
	return false
}
