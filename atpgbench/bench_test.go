package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestQuartiles compares against Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1.5, 9, 2, 2, 7, 3.25, 4, 8, 1, 6.5}, 1.875, 7.25},
	} {
		q1, q3, err := quartiles(c.in)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", c.in, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: no error")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mna.(*LU).Factor":                          "repro/internal/mna",
		"repro/internal/core.(*Session).generate.func1":            "repro/internal/core",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                  "internal/runtime/maps",
		"sync/atomic.(*Pointer[go.shape.struct { a.b int }]).Load": "sync/atomic",
		"repro/internal/engine.ForEach[go.shape.int]":              "repro/internal/engine",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: atpgbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     600ms 60.00% 60.00%      700ms 70.00%  repro/internal/mna.(*LU).Factor
     300ms 30.00% 90.00%      300ms 30.00%  runtime.mallocgc
     100ms 10.00%   100%      100ms 10.00%  repro/internal/mna.solve
`)
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if got["repro/internal/mna"] != 700 || got["runtime"] != 300 || len(got) != 2 {
		t.Fatalf("parsePprofTop = %v", got)
	}
}

// smallFlow runs a cheap real flow: the reduced macro, the two DC
// configurations, seed boxes, six faults.
func smallFlow(t *testing.T) *flowOutput {
	t.Helper()
	var dc []*repro.TestConfig
	for _, c := range repro.IVConfigs() {
		if c.ID <= 2 {
			dc = append(dc, c)
		}
	}
	sys, err := repro.NewSystem(repro.NewSimpleIVConverter(), dc, repro.WithFastBoxes(), repro.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	out := &flowOutput{sys: sys, faults: sys.Faults()[:6], delta: repro.DefaultCompactOptions().Delta}
	if out.sols, err = sys.GenerateAll(out.faults); err != nil {
		t.Fatal(err)
	}
	if out.cts, err = sys.Compact(out.sols, repro.DefaultCompactOptions()); err != nil {
		t.Fatal(err)
	}
	if out.cov, err = sys.Coverage(repro.TestsOfCompact(out.cts), out.faults); err != nil {
		t.Fatal(err)
	}
	if err := checkFlow(sys, out.faults, out.sols, out.cts, out.cov, out.delta); err != nil {
		t.Fatalf("untampered flow rejected: %v", err)
	}
	if out.cov.Detected == 0 {
		t.Fatal("flow detects no fault; the tamper tests need one")
	}
	return out
}

// TestChecksRejectTampering requires each output check to reject a
// result with one thing changed.
func TestChecksRejectTampering(t *testing.T) {
	out := smallFlow(t)
	sys := out.sys

	t.Run("verdict flipped", func(t *testing.T) {
		cov := out.cov
		cov.DetectedBy = map[string]int{}
		flipped := ""
		for id, ti := range out.cov.DetectedBy {
			if flipped == "" {
				flipped = id
				continue
			}
			cov.DetectedBy[id] = ti
		}
		cov.Detected--
		cov.Undetected = append(append([]string(nil), cov.Undetected...), flipped)
		if err := checkCoverage(sys, out.faults, out.cts, cov); err == nil {
			t.Fatalf("coverage with %s flipped to undetected accepted", flipped)
		}
	})

	t.Run("parameter outside bounds", func(t *testing.T) {
		sols := append([]*repro.Solution(nil), out.sols...)
		for i, sol := range sols {
			if sol.ConfigIdx < 0 {
				continue
			}
			moved := *sol
			moved.Params = append([]float64(nil), sol.Params...)
			moved.Params[0] = sys.Configs()[sol.ConfigIdx].Params[0].Hi * 1.5
			sols[i] = &moved
			break
		}
		if err := checkBounds(sys.Configs(), sols, out.cts); err == nil {
			t.Fatal("parameter outside its bounds accepted")
		}
	})

	t.Run("delta rule broken", func(t *testing.T) {
		sols := append([]*repro.Solution(nil), out.sols...)
		member := out.cts[0].Members[0]
		for i, sol := range sols {
			if sol.Fault.ID() == member {
				tight := *sol
				tight.Sensitivity = -1e6 // the limit S + δ(1 − S) falls far below S_f(T_c)
				sols[i] = &tight
			}
		}
		if err := checkDelta(sys, sols, out.cts, out.delta); err == nil {
			t.Fatal("compacted group breaking the δ rule accepted")
		}
	})

	t.Run("result byte changed", func(t *testing.T) {
		b, err := out.encode()
		if err != nil {
			t.Fatal(err)
		}
		changed := append([]byte(nil), b...)
		changed[len(changed)/2] ^= 0x01
		if err := checkBytes(b, b); err != nil {
			t.Fatalf("identical bytes rejected: %v", err)
		}
		if err := checkBytes(changed, b); err == nil {
			t.Fatal("changed result byte accepted")
		}
	})

	t.Run("dictionary short", func(t *testing.T) {
		dict := sys.Faults()
		if err := checkDictionary(sys.Golden(), dict); err != nil {
			t.Fatalf("full dictionary rejected: %v", err)
		}
		if len(dict) != 44 {
			t.Fatalf("reduced macro dictionary has %d faults, want 44", len(dict))
		}
		if err := checkDictionary(sys.Golden(), dict[1:]); err == nil {
			t.Fatal("dictionary without one bridge accepted")
		}
	})
}

// journalWithRoster writes a small distributed-style journal: two
// workers join, each is assigned a shard.
func journalWithRoster(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	tr := obs.New(j, obs.String("cmd", "atpgbench-test"))
	for _, w := range []string{"alpha", "beta"} {
		tr.Emit("worker_join", obs.String("worker", w))
	}
	for i, w := range []string{"alpha", "beta"} {
		shard := "job/s" + string(rune('0'+i))
		tr.Emit("shard_assign", obs.String("shard", shard), obs.String("worker", w))
		tr.Emit("shard_done", obs.String("shard", shard), obs.String("worker", w))
	}
	tr.Finish(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAuditJournalRejectsMissingWorkerJoin(t *testing.T) {
	good := journalWithRoster(t)
	if err := auditJournal(good); err != nil {
		t.Fatalf("complete journal rejected: %v", err)
	}
	var kept []string
	removed := false
	for _, line := range strings.Split(string(good), "\n") {
		if !removed && strings.Contains(line, `"worker_join"`) && strings.Contains(line, `"beta"`) {
			removed = true
			continue
		}
		kept = append(kept, line)
	}
	if !removed {
		t.Fatal("test journal has no worker_join for beta")
	}
	if err := auditJournal([]byte(strings.Join(kept, "\n"))); err == nil {
		t.Fatal("journal without beta's worker_join accepted")
	}
}

// TestSmoke runs one round of each workload, untraced, and one traced
// round of paper_dc.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, c := range []struct {
		workload string
		trace    int
	}{
		{"paper_tran", 0}, {"paper_dc", 0}, {"atpgd_dist", 0}, {"paper_dc", 1},
	} {
		res, err := execute(c.workload, 1, 0, c.trace)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d attempted, %d failed", c.workload, res.Correct, res.Attempted, res.Failed)
		}
		want := endToEndMetrics
		if c.trace == 1 {
			want = perLayerMetrics
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", c.workload, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", c.workload, m.name, got, m.unit)
			}
			if c.trace == 0 && !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", c.workload, m.name, got.Value)
			}
		}
	}
}
