package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/obs"
)

// The paper_tran fault sample: sampleBridges bridges and samplePinholes
// pinholes of the 55-fault dictionary, drawn with sampleSeed. Edit
// sampleSeed to draw another sample.
const (
	sampleSeed     = 1
	sampleBridges  = 3
	samplePinholes = 1
)

// paperSpec is one in-process paper-flow workload.
type paperSpec struct {
	// configs returns fresh test configurations for one System.
	configs func() []*repro.TestConfig
	// opts are the System's options on top of the worker count.
	opts []repro.Option
	// faultIDs selects the flow's faults (nil: the whole dictionary).
	faultIDs []string
}

// paperTran is the paper flow over all five configurations with
// seed-calibrated boxes (as atpg -fast) on a seeded fault sample.
func paperTran(ctx context.Context, env *benchEnv) (*runStats, error) {
	ids := drawSample(repro.IVFaultDictionary(repro.NewIVConverter()), sampleSeed)
	logf("paper_tran sample (seed %d): %v", sampleSeed, ids)
	return paperFlow(ctx, env, paperSpec{
		configs:  repro.IVConfigs,
		opts:     []repro.Option{repro.WithFastBoxes()},
		faultIDs: ids,
	})
}

// paperDC is the paper flow over the whole dictionary with only the DC
// configurations #1 dc-out and #2 supply-current and the library's
// default grid boxes.
func paperDC(ctx context.Context, env *benchEnv) (*runStats, error) {
	return paperFlow(ctx, env, paperSpec{
		configs: func() []*repro.TestConfig {
			var dc []*repro.TestConfig
			for _, c := range repro.IVConfigs() {
				if c.ID == 1 || c.ID == 2 {
					dc = append(dc, c)
				}
			}
			return dc
		},
	})
}

// drawSample draws sampleBridges bridges and samplePinholes pinholes from
// the dictionary with the given seed and returns their IDs in dictionary
// order.
func drawSample(dict []repro.Fault, seed int64) []string {
	var bridges, pinholes []string
	for _, f := range dict {
		switch f.(type) {
		case *repro.Bridge:
			bridges = append(bridges, f.ID())
		case *repro.Pinhole:
			pinholes = append(pinholes, f.ID())
		}
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := map[string]bool{}
	for _, i := range rng.Perm(len(bridges))[:sampleBridges] {
		chosen[bridges[i]] = true
	}
	for _, i := range rng.Perm(len(pinholes))[:samplePinholes] {
		chosen[pinholes[i]] = true
	}
	var ids []string
	for _, f := range dict {
		if chosen[f.ID()] {
			ids = append(ids, f.ID())
		}
	}
	return ids
}

// selectFaults returns the faults of dict with the given IDs, in
// dictionary order (all of dict when ids is nil).
func selectFaults(dict []repro.Fault, ids []string) ([]repro.Fault, error) {
	if ids == nil {
		return dict, nil
	}
	return repro.FaultsByID(dict, ids)
}

// flowOutput is one paper flow's products.
type flowOutput struct {
	sys    *repro.System
	faults []repro.Fault
	sols   []*repro.Solution
	cts    []repro.CompactTest
	cov    repro.CoverageReport
	delta  float64
}

// encode returns the flow's result in the canonical wire encoding.
func (o *flowOutput) encode() ([]byte, error) {
	return api.Encode(repro.WireResult(o.sys, o.faults, o.sols, o.cts, o.cov, o.delta))
}

// paperFlow runs fresh-System flows back to back until env.seconds have
// passed (at least one). Each operation is GenerateAll → Compact →
// Coverage on a System built just before it; building it is the set-up.
func paperFlow(ctx context.Context, env *benchEnv, spec paperSpec) (*runStats, error) {
	rs := &runStats{}
	tr := newLayerTrace(env)
	if err := tr.start(); err != nil {
		return nil, err
	}
	var ref []byte
	var traced, untraced, generate, compact, coverage, optimize, impact, e2e []float64
	var genCPU, genWall float64
	var journalBytes, journalFaults int
	var runs repro.Stats
	var missRatio float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < env.seconds; i++ {
		rs.attempted++
		// The traced run attaches the program's tracer, writing to an
		// in-memory journal, to the flows of its second half, for the
		// tracing overhead. The first half stays untraced because a
		// traced session leaves its simulation trace hook installed for
		// the rest of the process.
		withTracer := env.trace && time.Since(start) >= env.seconds/2
		var journal *obs.Journal
		var tracer *obs.Tracer
		var jbuf countingWriter
		opts := append([]repro.Option{repro.WithWorkers(env.nproc)}, spec.opts...)
		if withTracer {
			journal = obs.NewJournal(&jbuf)
			tracer = obs.New(journal, obs.String("cmd", "atpgbench"))
			opts = append(opts, repro.WithTracer(tracer))
		}

		t0 := time.Now()
		sys, err := repro.NewSystemContext(ctx, repro.NewIVConverter(), spec.configs(), opts...)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rs.setup = append(rs.setup, time.Since(t0).Seconds())
		faults, err := selectFaults(sys.Faults(), spec.faultIDs)
		if err != nil {
			return nil, err
		}

		before := tr.counters()
		c0, t1 := cpuSeconds(), time.Now()
		out := &flowOutput{sys: sys, faults: faults, delta: repro.DefaultCompactOptions().Delta}
		out.sols, err = sys.GenerateAllContext(ctx, faults)
		c1, t2 := cpuSeconds(), time.Now()
		if err == nil {
			out.cts, err = sys.CompactContext(ctx, out.sols, repro.DefaultCompactOptions())
		}
		t3 := time.Now()
		if err == nil {
			out.cov, err = sys.CoverageContext(ctx, repro.TestsOfCompact(out.cts), faults)
		}
		c4, t4 := cpuSeconds(), time.Now()
		after := tr.counters()
		if err != nil {
			rs.failed++
			rs.unexpected++
			logf("flow %d failed: %v", i, err)
			continue
		}
		op := t4.Sub(t1).Seconds()
		logf("flow %d: set-up %.4fs, flow %.3fs", i, t1.Sub(t0).Seconds(), op)
		rs.ops = append(rs.ops, op)
		rs.wall += op
		rs.cpu += c4 - c0
		rs.faults += len(faults)
		st, m := sys.Stats(), sys.Metrics()
		if withTracer {
			traced = append(traced, op)
			tracer.Finish(nil, obs.Any("metrics", repro.WireMetrics(m)))
			if err := journal.Close(); err != nil {
				return nil, err
			}
			journalBytes += jbuf.n
			journalFaults += len(faults)
		} else {
			untraced = append(untraced, op)
		}
		tr.add(after.sub(before))
		generate = append(generate, t2.Sub(t1).Seconds())
		compact = append(compact, t3.Sub(t2).Seconds())
		coverage = append(coverage, t4.Sub(t3).Seconds())
		genCPU += c1 - c0
		genWall += t2.Sub(t1).Seconds() * float64(env.nproc)
		optimize = append(optimize, nsToS(m.Phase(repro.PhaseOptimize).Latency.P50()))
		impact = append(impact, nsToS(m.Phase(repro.PhaseImpact).Latency.P50()))
		e2e = append(e2e, nsToS(m.Phase(core.PhaseFaultE2E).Latency.P50()))
		runs.FaultyRuns += st.FaultyRuns
		runs.NominalRuns += st.NominalRuns
		c := m.Cache
		missRatio = ratio(float64(c.Misses), float64(c.Hits+c.Misses+c.Shared))

		// Checks, outside the timed region.
		b, err := out.encode()
		if err == nil {
			if ref == nil {
				ref = b
			}
			err = checkBytes(b, ref)
		}
		if err == nil {
			err = checkFlow(sys, faults, out.sols, out.cts, out.cov, out.delta)
		}
		if err != nil {
			rs.failed++
			rs.unexpected++
			logf("flow %d: check failed: %v", i, err)
			continue
		}
		rs.coverage = out.cov.Percent()
		rs.tests = len(out.cts)
	}
	if env.trace {
		L, err := tr.finish(rs.faults)
		if err != nil {
			return nil, err
		}
		f := float64(rs.faults)
		L["core.faulty_runs_per_fault"] = float64(runs.FaultyRuns) / f
		L["core.nominal_runs_per_fault"] = float64(runs.NominalRuns) / f
		L["core.retained_eval_ratio"] = ratio(float64(tr.total.solver.FaultyFactorAvoided), float64(runs.FaultyRuns))
		L["core.box_build_s"] = median(rs.setup)
		L["core.generate_s"] = median(generate)
		L["core.compact_s"] = median(compact)
		L["core.coverage_s"] = median(coverage)
		L["core.optimize_p50_s"] = median(optimize)
		L["core.impact_loop_p50_s"] = median(impact)
		L["engine.cache_miss_ratio"] = missRatio
		L["engine.fault_e2e_p50_s"] = median(e2e)
		L["engine.parallel_efficiency"] = ratio(genCPU, genWall)
		L["obs.journal_bytes_per_fault"] = ratio(float64(journalBytes), float64(journalFaults))
		L["obs.trace_overhead_ratio"] = ratio(median(traced), median(untraced))
		rs.layers = L
	}
	return rs, nil
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func nsToS(ns int64) float64 { return float64(ns) / 1e9 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
