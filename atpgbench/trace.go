package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/obs/hist"
	"repro/internal/sim"
)

// counters is a snapshot of the process-wide work counters the program
// already keeps (sim.Totals and the per-analysis histograms) plus the
// Go runtime's allocation and GC totals.
type counters struct {
	solver sim.Counters
	hists  map[string]hist.Snapshot
	alloc  uint64 // bytes allocated
	gc     uint32 // completed GC cycles
}

func readCounters() counters {
	c := counters{solver: sim.Totals(), hists: map[string]hist.Snapshot{}}
	for _, h := range sim.HistSnapshots() {
		c.hists[h.Name] = h.Snapshot
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gc = ms.TotalAlloc, ms.NumGC
	return c
}

// sub returns the work done between snapshot b and c.
func (c counters) sub(b counters) counters {
	s, o := c.solver, b.solver
	d := counters{
		solver: sim.Counters{
			Stamps:              s.Stamps - o.Stamps,
			Factorizations:      s.Factorizations - o.Factorizations,
			FactorReuses:        s.FactorReuses - o.FactorReuses,
			NewtonIterations:    s.NewtonIterations - o.NewtonIterations,
			Solves:              s.Solves - o.Solves,
			BaseBuilds:          s.BaseBuilds - o.BaseBuilds,
			BaseHits:            s.BaseHits - o.BaseHits,
			FaultyFactorAvoided: s.FaultyFactorAvoided - o.FaultyFactorAvoided,
		},
		hists: map[string]hist.Snapshot{},
		alloc: c.alloc - b.alloc,
		gc:    c.gc - b.gc,
	}
	for name, h := range c.hists {
		d.hists[name] = h.Sub(b.hists[name])
	}
	return d
}

// add accumulates d into c.
func (c *counters) add(d counters) {
	s := &c.solver
	s.Stamps += d.solver.Stamps
	s.Factorizations += d.solver.Factorizations
	s.FactorReuses += d.solver.FactorReuses
	s.NewtonIterations += d.solver.NewtonIterations
	s.Solves += d.solver.Solves
	s.BaseBuilds += d.solver.BaseBuilds
	s.BaseHits += d.solver.BaseHits
	s.FaultyFactorAvoided += d.solver.FaultyFactorAvoided
	if c.hists == nil {
		c.hists = map[string]hist.Snapshot{}
	}
	for name, h := range d.hists {
		t := c.hists[name]
		t.Count += h.Count
		t.Sum += h.Sum
		c.hists[name] = t
	}
	c.alloc += d.alloc
	c.gc += d.gc
}

// layerTrace gathers the per-layer measurements of a traced run: the
// counter deltas over the timed operations and a CPU profile of the
// whole run. On an untraced run every method is a no-op.
type layerTrace struct {
	on      bool
	profile string
	file    *os.File
	total   counters
}

func newLayerTrace(env *benchEnv) *layerTrace {
	return &layerTrace{on: env.trace, profile: filepath.Join(env.dir, "cpu.pprof")}
}

// start begins the CPU profile.
func (t *layerTrace) start() error {
	if !t.on {
		return nil
	}
	f, err := os.Create(t.profile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.file = f
	return nil
}

// counters snapshots the work counters (traced runs only).
func (t *layerTrace) counters() counters {
	if !t.on {
		return counters{}
	}
	return readCounters()
}

// add accumulates the work of one timed stretch.
func (t *layerTrace) add(d counters) {
	if t.on {
		t.total.add(d)
	}
}

// finish stops the profile and returns the kernel, simulation, runtime
// and CPU-share metrics per completed fault.
func (t *layerTrace) finish(faults int) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := t.file.Close(); err != nil {
		return nil, err
	}
	L, err := cpuShares(t.profile)
	if err != nil {
		return nil, err
	}
	f := float64(faults)
	s := t.total.solver
	L["mna.factorizations_per_fault"] = float64(s.Factorizations) / f
	L["mna.solves_per_fault"] = float64(s.Solves) / f
	L["mna.factor_reuses_per_fault"] = float64(s.FactorReuses) / f
	L["device.stamps_per_fault"] = float64(s.Stamps) / f
	h := t.total.hists
	tran := h["sim.transient"]
	tran.Count += h["sim.transient-adaptive"].Count
	tran.Sum += h["sim.transient-adaptive"].Sum
	L["sim.transient_runs_per_fault"] = float64(tran.Count) / f
	L["sim.transient_s_per_fault"] = nsToS(tran.Sum) / f
	L["sim.op_runs_per_fault"] = float64(h["sim.op"].Count) / f
	L["sim.op_s_per_fault"] = nsToS(h["sim.op"].Sum) / f
	L["sim.newton_iters_per_run"] = ratio(float64(s.NewtonIterations), float64(h["sim.newton_iters"].Count))
	L["sim.base_hit_ratio"] = ratio(float64(s.BaseHits), float64(s.BaseHits+s.BaseBuilds))
	L["runtime.alloc_mb_per_fault"] = float64(t.total.alloc) / (1 << 20) / f
	L["runtime.gc_cycles_per_fault"] = float64(t.total.gc) / f
	return L, nil
}

// layerPackages maps each *.cpu_share metric to the packages whose self
// time it sums (a package and its subpackages).
var layerPackages = []struct {
	metric string
	pkgs   []string
}{
	{"mna.cpu_share", []string{"repro/internal/mna"}},
	{"device.cpu_share", []string{"repro/internal/device"}},
	{"sim.cpu_share", []string{"repro/internal/sim"}},
	{"core.cpu_share", []string{"repro/internal/core", "repro/internal/testcfg", "repro/internal/tolerance",
		"repro/internal/fault", "repro/internal/circuit", "repro/internal/dsp", "repro/internal/wave"}},
	{"opt.cpu_share", []string{"repro/internal/opt"}},
	{"engine.cpu_share", []string{"repro/internal/engine"}},
	{"server.cpu_share", []string{"repro/internal/server", "repro/internal/ckpt", "repro/api"}},
	{"obs.cpu_share", []string{"repro/internal/obs"}},
	{"runtime.cpu_share", []string{"runtime", "internal/runtime"}},
}

// cpuShares groups a CPU profile's self time by package with the
// installed `go tool pprof` and returns each layer's share of all
// samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, errb.String())
	}
	selfMS, err := parsePprofTop(out.Bytes())
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, ms := range selfMS {
		total += ms
	}
	shares := map[string]float64{}
	for pkg, ms := range selfMS {
		for _, l := range layerPackages {
			for _, p := range l.pkgs {
				if pkg == p || strings.HasPrefix(pkg, p+"/") {
					shares[l.metric] += ratio(ms, total)
				}
			}
		}
	}
	return shares, nil
}

// parsePprofTop reads `go tool pprof -top -unit=ms` output and returns
// the self (flat) milliseconds per package.
func parsePprofTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		self[packageOf(strings.Join(fields[5:], " "))] += ms
	}
	if !header {
		return nil, fmt.Errorf("pprof output without a table:\n%s", out)
	}
	return self, sc.Err()
}

// packageOf returns the import path of a symbolized Go function name,
// such as repro/internal/mna.(*LU).Factor → repro/internal/mna.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "([ "); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
