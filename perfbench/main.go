// Command perfbench measures what ORA profiling costs an OpenMP
// program, end to end and layer by layer. Each workload runs one
// program at a time on a 2-thread team, alternating ORA-off and ORA-on
// passes in an order drawn from the seed:
//
//   - luhp: NPB LU-HP class B with full measurement, traces held in
//     memory and written with Tool.WriteTraces after the run.
//   - epcc-psxd: an EPCC sweep of in-region constructs with every ORA
//     event registered, shipped over loopback to an in-process psxd
//     with durable acks.
//   - cg-alwayson: NPB CG class B always on: streamed to local files,
//     1 ms state sampler, 5% overhead ceiling.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload luhp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, with
// --trace 1 the per-layer metrics of a separately instrumented run.
// Every pass is checked; the last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"goomp/internal/experiments"
	"goomp/internal/tool"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: luhp, epcc-psxd or cg-alwayson")
	seed := flag.Int64("seed", 1, "seed for the pass order and the EPCC construct order")
	secs := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the instrumented per-layer measurement instead")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	rng := rand.New(rand.NewSource(seed))
	w, err := newWorkload(name, rng)
	if err != nil {
		return err
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)
	b := &bench{w: w, root: root}
	printConfig(w, seed, budget, traced)

	// Warm-up: one untimed pass of each kind, so first-touch page
	// faults, heap growth and pool creation land on no measured pass.
	b.offPass()
	if _, err := b.onPass(passFull); err != nil {
		return err
	}

	kinds := []passKind{passOff, passFull}
	if traced {
		kinds = []passKind{passOff, passCallbacks, passFull, passTraced}
	}
	var passes []passResult
	var order []string
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		for _, i := range rng.Perm(len(kinds)) {
			// Every pass starts from a collected heap with the
			// resident-memory high-water mark reset, so no pass pays
			// for garbage an earlier one left. The runtime keeps freed
			// pages for reuse, so a pass's peak is at least what the
			// previous pass left resident; returning them to the OS
			// first would instead charge every pass, setup included,
			// the page faults of regrowing its heap.
			runtime.GC()
			resetPeakRSS()
			var r passResult
			if kinds[i] == passOff {
				r = b.offPass()
			} else if r, err = b.onPass(kinds[i]); err != nil {
				return err
			}
			if r.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
			passes = append(passes, r)
			order = append(order, r.kind.String())
			printPass(len(passes), r)
		}
	}
	fmt.Printf("pass order: %s\n", strings.Join(order, ","))

	res := result{Correct: true, Attempted: len(passes), Metrics: map[string]metric{}}
	for _, p := range passes {
		if p.failure != "" {
			res.Failed++
			res.Correct = false
		}
	}
	if traced {
		if fails := crossCheck(w, passes); len(fails) > 0 {
			res.Correct = false
			res.Failed++
			for _, f := range fails {
				fmt.Printf("traced run cross-check FAILED: %s\n", f)
			}
		}
		err = layerMetrics(res.Metrics, w, passes)
	} else {
		err = endToEndMetrics(res.Metrics, passes)
	}
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// good returns the passes of kind that passed every check.
func good(passes []passResult, kind passKind) []passResult {
	var out []passResult
	for _, p := range passes {
		if p.kind == kind && p.failure == "" {
			out = append(out, p)
		}
	}
	return out
}

// med is the median of f over passes.
func med(passes []passResult, f func(p passResult) float64) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return median(xs)
}

// lossFrac is the share of dispatched events missing from storage over
// every ORA-on pass of the given kinds.
func lossFrac(passes []passResult, kinds ...passKind) float64 {
	var missing, events uint64
	for _, p := range passes {
		for _, k := range kinds {
			if p.kind == k {
				missing += p.missing
				events += p.events
			}
		}
	}
	if events == 0 {
		return 1
	}
	return float64(missing) / float64(events)
}

func endToEndMetrics(m map[string]metric, passes []passResult) error {
	off, on := good(passes, passOff), good(passes, passFull)
	if len(off) == 0 || len(on) == 0 {
		return fmt.Errorf("no pass of each kind passed its checks")
	}
	secs := func(f func(p passResult) time.Duration) float64 {
		return med(on, func(p passResult) float64 { return f(p).Seconds() })
	}
	m["setup_s"] = metric{secs(func(p passResult) time.Duration { return p.setup }), "s"}
	m["base_s"] = metric{med(off, func(p passResult) float64 { return p.out.elapsed.Seconds() }), "s"}
	m["run_s"] = metric{secs(func(p passResult) time.Duration { return p.out.elapsed }), "s"}
	m["drain_s"] = metric{secs(func(p passResult) time.Duration { return p.drain }), "s"}
	m["report_s"] = metric{secs(func(p passResult) time.Duration { return p.report }), "s"}
	m["bytes_per_event"] = metric{med(on, func(p passResult) float64 {
		return float64(p.storedBytes) / float64(max(p.stored, 1))
	}), "B"}
	m["rss_peak_mb"] = metric{med(on, func(p passResult) float64 { return p.rssMB }), "MB"}
	m["delivered_frac"] = metric{1 - lossFrac(passes, passFull), "ratio"}
	return nil
}

// crossCheck compares the traced passes' instruments with the
// program's own accounting and returns every disagreement. Passes that
// failed their checks are compared too: the ledger must match the
// instruments whether or not data was lost.
func crossCheck(w *workload, passes []passResult) []string {
	var fails []string
	for _, p := range passes {
		if p.kind != passTraced {
			continue
		}
		h := p.hooks
		jc, _, oc, _ := h.callbacks()
		if uint64(jc+oc) != p.events {
			fails = append(fails, fmt.Sprintf("wrapped callbacks %d != collector events %d", jc+oc, p.events))
		}
		if w.sink != sinkPsxd && uint64(h.fileBytes.Load()) != p.storedBytes {
			fails = append(fails, fmt.Sprintf("file-sink bytes %d != %d bytes on disk", h.fileBytes.Load(), p.storedBytes))
		}
		if p.run != nil {
			if uint64(h.fsSyncs.Load()) != p.run.Fsyncs {
				fails = append(fails, fmt.Sprintf("FS-hook syncs %d != psxd fsyncs %d", h.fsSyncs.Load(), p.run.Fsyncs))
			}
			if uint64(h.wireBytes.Load()) < p.run.Bytes {
				fails = append(fails, fmt.Sprintf("wire bytes %d < psxd stored bytes %d", h.wireBytes.Load(), p.run.Bytes))
			}
		}
	}
	return fails
}

// layerMetrics fills the per-layer metrics from a traced run.
func layerMetrics(m map[string]metric, w *workload, passes []passResult) error {
	off, cbs := good(passes, passOff), good(passes, passCallbacks)
	full, traced := good(passes, passFull), good(passes, passTraced)
	if len(off) == 0 || len(cbs) == 0 || len(full) == 0 || len(traced) == 0 {
		return fmt.Errorf("no pass of each kind passed its checks")
	}

	elapsed := func(ps []passResult) float64 {
		return med(ps, func(p passResult) float64 { return float64(p.out.elapsed) })
	}
	offNs, cbNs, fullNs, tracedNs := elapsed(off), elapsed(cbs), elapsed(full), elapsed(traced)
	regions := med(full, func(p passResult) float64 { return float64(p.out.regionCalls) })
	events := med(full, func(p passResult) float64 { return float64(p.events) })
	perEvent := func(d time.Duration, p passResult) float64 {
		return float64(d) / float64(max(p.stored, 1))
	}
	hookMed := func(f func(h *hooks) int64) float64 {
		return med(traced, func(p passResult) float64 { return float64(f(p.hooks)) })
	}
	var joinCalls, joinNs, otherCalls, otherNs int64
	for _, p := range traced {
		jc, jn, oc, on := p.hooks.callbacks()
		joinCalls, joinNs, otherCalls, otherNs = joinCalls+jc, joinNs+jn, otherCalls+oc, otherNs+on
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runInfo := func(f func(p passResult) uint64) float64 {
		return med(traced, func(p passResult) float64 {
			if p.run == nil {
				return 0
			}
			return float64(f(p))
		})
	}
	levelMax := 0
	for _, p := range full {
		for _, st := range p.rep.GovernorSteps {
			levelMax = max(levelMax, int(st.To))
		}
	}

	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("omp.region_calls", "count", regions)
	set("omp.base_ns_per_region", "ns", ratio(offNs, regions))
	set("omp.alloc_bytes_per_region", "B", ratio(med(off, func(p passResult) float64 { return p.rt.allocBytes }), regions))
	set("collector.events", "count", events)
	set("collector.dispatch_ns_per_event", "ns", ratio(cbNs-offNs, med(cbs, func(p passResult) float64 { return float64(p.events) })))
	set("tool.join_callback_ns", "ns", ratio(float64(joinNs), float64(joinCalls)))
	set("tool.callback_ns", "ns", ratio(float64(otherNs), float64(otherCalls)))
	set("tool.callback_busy_s", "s", med(traced, func(p passResult) float64 {
		_, jn, _, on := p.hooks.callbacks()
		return float64(jn+on) / 1e9
	}))
	set("tool.measure_share_pct", "%", 100*ratio(fullNs-cbNs, fullNs-offNs))
	set("tool.overhead_pct", "%", 100*(ratio(fullNs, offNs)-1))
	set("tool.detach_s", "s", med(full, func(p passResult) float64 { return p.detach.Seconds() }))
	set("tool.sampler_polls", "count", med(full, func(p passResult) float64 {
		if p.rep.States == nil {
			return 0
		}
		return float64(p.rep.States.Total(0))
	}))
	set("tool.sink.file_bytes", "B", hookMed(func(h *hooks) int64 { return h.fileBytes.Load() }))
	set("tool.sink.file_writes", "count", hookMed(func(h *hooks) int64 { return h.fileWrites.Load() }))
	set("tool.sink.file_write_s", "s", hookMed(func(h *hooks) int64 { return h.fileNs.Load() })/1e9)
	set("tool.sink.wire_bytes", "B", hookMed(func(h *hooks) int64 { return h.wireBytes.Load() }))
	set("tool.sink.wire_write_s", "s", hookMed(func(h *hooks) int64 { return h.wireWriteNs.Load() })/1e9)
	set("tool.sink.ack_wait_s", "s", hookMed(func(h *hooks) int64 { return h.ackWaitNs.Load() })/1e9)
	set("perf.encode_ns_per_event", "ns", med(traced, func(p passResult) float64 { return perEvent(p.encode, p) }))
	set("perf.stacks", "count", med(traced, func(p passResult) float64 { return float64(p.stacks) }))
	set("perf.decode_ns_per_event", "ns", med(full, func(p passResult) float64 { return perEvent(p.decode, p) }))
	set("analysis.aggregate_ns_per_event", "ns", med(full, func(p passResult) float64 { return perEvent(p.report-p.decode, p) }))
	set("ingest.seal_lag_s", "s", med(traced, func(p passResult) float64 { return p.sealLag.Seconds() }))
	set("ingest.fsyncs", "count", runInfo(func(p passResult) uint64 { return p.run.Fsyncs }))
	set("ingest.fsync_s", "s", hookMed(func(h *hooks) int64 { return h.fsSyncNs.Load() })/1e9)
	set("ingest.write_bytes", "B", hookMed(func(h *hooks) int64 { return h.fsBytes.Load() }))
	set("ingest.write_s", "s", hookMed(func(h *hooks) int64 { return h.fsWriteNs.Load() })/1e9)
	set("ingest.chunks", "count", runInfo(func(p passResult) uint64 { return p.run.Chunks }))
	set("degrade.ratio", "ratio", med(full, func(p passResult) float64 { return p.rep.GovernorRatio }))
	set("degrade.level_max", "level", float64(levelMax))
	set("degrade.steps", "count", med(full, func(p passResult) float64 { return float64(len(p.rep.GovernorSteps)) }))
	set("goruntime.alloc_bytes_per_event", "B", med(full, func(p passResult) float64 {
		return ratio(p.rt.allocBytes, float64(p.events))
	}))
	set("goruntime.gc_cycles", "count", med(full, func(p passResult) float64 { return p.rt.gcCycles }))
	set("goruntime.gc_pause_s", "s", med(full, func(p passResult) float64 { return p.rt.pauseSeconds }))
	set("goruntime.sched_latency_p99_s", "s", med(full, func(p passResult) float64 { return p.rt.schedP99 }))
	set("bench.trace_overhead_pct", "%", 100*(ratio(tracedNs, fullNs)-1))
	set("loss_frac", "ratio", lossFrac(passes, passFull, passTraced))

	printComparison(w, m)
	return nil
}

// printComparison prints the paper-against-measured rows; they are
// reports, not gates.
func printComparison(w *workload, m map[string]metric) {
	switch w.name {
	case "luhp":
		share := fmt.Sprintf("%.2f%%", m["tool.measure_share_pct"].Value)
		if m["collector.dispatch_ns_per_event"].Value <= 0 {
			// Callbacks-only passes timed at or below ORA-off passes:
			// the split's subtrahend is noise, so the share is too.
			share = fmt.Sprintf("below noise (callbacks-only minus off %.2f ns/event, share would read %s)",
				m["collector.dispatch_ns_per_event"].Value, share)
		}
		fmt.Printf("compare: LU-HP measurement/storage share of tool overhead: paper %.2f%%, measured %s\n",
			experiments.PaperDecomposition["LU-HP"], share)
		fmt.Printf("compare: LU-HP profiling overhead: paper ≈6%% (8 threads), measured %.2f%% (%d threads)\n",
			m["tool.overhead_pct"].Value, teamSize)
	case "cg-alwayson":
		fmt.Printf("compare: CG always-on governor ratio %.4f (ceiling 0.05) against measured overhead %.2f%%\n",
			m["degrade.ratio"].Value, m["tool.overhead_pct"].Value)
	}
}

// printConfig records the host and configuration the result belongs
// to, so a change of host or of a default shows next to the numbers.
func printConfig(w *workload, seed int64, budget time.Duration, traced bool) {
	host, _ := os.Hostname()
	cfg := map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"seconds":        budget.Seconds(),
		"trace":          traced,
		"host":           host,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cpu_model":      cpuModel(),
		"npb_class":      npbClass.String(),
		"team_size":      teamSize,
		"trace_encoding": defaultEncoding(),
	}
	if w.detail != "" {
		cfg["program"] = w.detail
	}
	out, _ := json.Marshal(cfg)
	fmt.Printf("config %s\n", out)
}

// defaultEncoding names the trace encoding the tool writes when the
// caller sets none.
func defaultEncoding() string {
	switch enc := traceEncoding(tool.FullMeasurement()); {
	case enc.Flate:
		return "v2+flate"
	case enc.V2:
		return "v2"
	}
	return "v1"
}

func printPass(n int, r passResult) {
	line := fmt.Sprintf("pass %d %s program %.6fs peak-rss %.2fMB", n, r.kind, r.out.elapsed.Seconds(), r.rssMB)
	if r.kind != passOff {
		line += fmt.Sprintf(" setup %.6fs drain %.6fs report %.6fs events %d stored %d",
			r.setup.Seconds(), r.drain.Seconds(), r.report.Seconds(), r.events, r.stored)
	}
	if r.rep != nil && len(r.rep.GovernorSteps) > 0 {
		line += fmt.Sprintf(" governor %d steps, final level %s", len(r.rep.GovernorSteps), r.rep.GovernorLevel)
	}
	if r.shed > 0 {
		line += fmt.Sprintf(" governor shed %d events", r.shed)
	}
	if r.failure != "" {
		line += " FAILED: " + r.failure
	}
	fmt.Println(line)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
