package main

import (
	"fmt"
	"math/rand"
	"time"

	"goomp/internal/collector"
	"goomp/internal/epcc"
	"goomp/internal/npb"
	"goomp/internal/omp"
	"goomp/internal/tool"
)

const (
	// teamSize is the OpenMP team of every program: one thread per
	// core of the 2-core host the benchmark is sized for.
	teamSize = 2
	npbClass = npb.ClassB

	// epccReps is how many sweeps of the EPCC constructs' timed inner
	// loops (128 constructs each) run in one pass. It sets the pass
	// length; the EPCC default of 20 outer repetitions is too short to
	// time.
	epccReps = 200
)

// sinkKind is where a workload's profile is stored.
type sinkKind int

const (
	// sinkAtExit holds traces in memory and writes them with
	// Tool.WriteTraces after Detach: the paper's model, ompprof -trace.
	sinkAtExit sinkKind = iota
	// sinkStream streams trace chunks to per-thread files during the
	// run (Options.StreamDir).
	sinkStream
	// sinkPsxd ships trace chunks over loopback to an in-process psxd
	// (ingest.Server) with durable acks.
	sinkPsxd
)

// outcome is one execution of a workload's program.
type outcome struct {
	elapsed     time.Duration // the program's own timed section
	regionCalls uint64
	verified    bool
}

// workload is one program with its profiling configuration.
type workload struct {
	name string
	sink sinkKind
	// options is the tool configuration of an ORA-on pass, before the
	// sink's fields are filled in.
	options func() tool.Options
	program func(rt *omp.RT) outcome
	// detail describes the seed-dependent shape of the program.
	detail string
}

func newWorkload(name string, rng *rand.Rand) (*workload, error) {
	switch name {
	case "luhp":
		return &workload{
			name:    name,
			sink:    sinkAtExit,
			options: tool.FullMeasurement,
			program: npbProgram(npb.RunLUHP),
		}, nil
	case "epcc-psxd":
		order, err := epccOrder(rng)
		if err != nil {
			return nil, err
		}
		detail := ""
		for i, d := range order {
			if i > 0 {
				detail += ","
			}
			detail += d.Name
		}
		return &workload{
			name: name,
			sink: sinkPsxd,
			options: func() tool.Options {
				o := tool.FullMeasurement()
				o.Events = allRuntimeEvents()
				return o
			},
			program: epccProgram(order),
			detail:  "constructs " + detail,
		}, nil
	case "cg-alwayson":
		return &workload{
			name: name,
			sink: sinkStream,
			options: func() tool.Options {
				o := tool.FullMeasurement()
				o.SamplePeriod = time.Millisecond
				o.OverheadCeiling = 0.05
				return o
			},
			program: npbProgram(npb.RunCG),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want luhp, epcc-psxd or cg-alwayson)", name)
}

func npbProgram(run func(*omp.RT, npb.Class) npb.Result) func(*omp.RT) outcome {
	return func(rt *omp.RT) outcome {
		res := run(rt, npbClass)
		return outcome{elapsed: res.Time, regionCalls: res.RegionCalls, verified: res.Verified}
	}
}

// epccConstructs are the in-region directives of the EPCC sweep: few
// forks and joins, many per-event callbacks.
var epccConstructs = []string{
	"BARRIER", "CRITICAL", "LOCK/UNLOCK", "SINGLE", "ORDERED", "REDUCTION", "ATOMIC",
}

func epccOrder(rng *rand.Rand) ([]epcc.Directive, error) {
	var out []epcc.Directive
	for _, i := range rng.Perm(len(epccConstructs)) {
		d, err := epcc.Lookup(epccConstructs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func epccProgram(order []epcc.Directive) func(*omp.RT) outcome {
	return func(rt *omp.RT) outcome {
		s := epcc.NewSuite(rt)
		start := time.Now()
		// Every repetition sweeps all constructs, so the rate at which
		// events reach psxd, and with it the backlog left at the end,
		// is the same whatever order the seed chose.
		for r := 0; r < epccReps; r++ {
			for _, d := range order {
				d.Run(s)
			}
		}
		return outcome{elapsed: time.Since(start), regionCalls: rt.RegionCalls(), verified: true}
	}
}

// allRuntimeEvents is every ORA event the runtime dispatches; the
// governor event is synthesized by the tool itself.
func allRuntimeEvents() []collector.Event {
	var out []collector.Event
	for e := collector.Event(0); int32(e) < collector.NumEvents; e++ {
		if e != collector.EventGovernor {
			out = append(out, e)
		}
	}
	return out
}
