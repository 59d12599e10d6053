package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro"
	"repro/internal/obs"
)

// The checks below verify an operation's outputs outside its timed
// region. Each recomputes a property through a second public path or
// tests a rule the method must obey; none compares against a stored
// copy of earlier output.

// checkFlow runs every flow-level check on one generation, compaction
// and coverage result.
func checkFlow(sys *repro.System, faults []repro.Fault, sols []*repro.Solution, cts []repro.CompactTest, cov repro.CoverageReport, delta float64) error {
	if err := checkDictionary(sys.Golden(), sys.Faults()); err != nil {
		return err
	}
	if err := checkBounds(sys.Configs(), sols, cts); err != nil {
		return err
	}
	if err := checkDelta(sys, sols, cts, delta); err != nil {
		return err
	}
	return checkCoverage(sys, faults, cts, cov)
}

// checkDictionary requires one bridge per pair of circuit nodes (ground
// included) and one pinhole per MOSFET, both counted from the macro's
// netlist listing.
func checkDictionary(golden *repro.Circuit, dict []repro.Fault) error {
	nodes := map[string]bool{}
	mosfets := 0
	for _, line := range strings.Split(golden.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || strings.HasPrefix(fields[0], "*") {
			continue
		}
		if strings.HasPrefix(strings.ToUpper(fields[0]), "M") {
			mosfets++
		}
		for _, n := range fields[1:] {
			if n == "gnd" || n == "GND" {
				n = "0"
			}
			nodes[n] = true
		}
	}
	wantBridges := len(nodes) * (len(nodes) - 1) / 2
	bridges, pinholes := 0, 0
	for _, f := range dict {
		switch f.(type) {
		case *repro.Bridge:
			bridges++
		case *repro.Pinhole:
			pinholes++
		}
	}
	if bridges != wantBridges || pinholes != mosfets || len(dict) != bridges+pinholes {
		return fmt.Errorf("dictionary of %s: %d bridges and %d pinholes of %d faults, want C(%d, 2) = %d and %d",
			golden.Name(), bridges, pinholes, len(dict), len(nodes), wantBridges, mosfets)
	}
	return nil
}

// checkBounds requires every solution's and compacted test's parameter
// vector to lie inside its configuration's bounds.
func checkBounds(cfgs []*repro.TestConfig, sols []*repro.Solution, cts []repro.CompactTest) error {
	inside := func(what string, ci int, T []float64) error {
		if ci < 0 || ci >= len(cfgs) {
			return fmt.Errorf("%s: configuration index %d of %d", what, ci, len(cfgs))
		}
		ps := cfgs[ci].Params
		if len(T) != len(ps) {
			return fmt.Errorf("%s: %d parameters, configuration #%d has %d", what, len(T), cfgs[ci].ID, len(ps))
		}
		for i, p := range ps {
			if !(T[i] >= p.Lo && T[i] <= p.Hi) {
				return fmt.Errorf("%s: parameter %s = %g outside [%g, %g] of configuration #%d",
					what, p.Name, T[i], p.Lo, p.Hi, cfgs[ci].ID)
			}
		}
		return nil
	}
	for _, sol := range sols {
		if sol.ConfigIdx < 0 {
			continue // unresolved: no test to check
		}
		if err := inside("solution "+sol.Fault.ID(), sol.ConfigIdx, sol.Params); err != nil {
			return err
		}
	}
	for i, ct := range cts {
		if err := inside(fmt.Sprintf("compacted test %d", i), ct.ConfigIdx, ct.Params); err != nil {
			return err
		}
	}
	return nil
}

// checkDelta requires every member of every compacted group to meet the
// paper's δ rule, S_f(T_c) ≤ S_f(T_opt) + δ·(1 − S_f(T_opt)), with
// S_f(T_c) recomputed by System.Sensitivity at the dictionary impact.
func checkDelta(sys *repro.System, sols []*repro.Solution, cts []repro.CompactTest, delta float64) error {
	byID := make(map[string]*repro.Solution, len(sols))
	for _, sol := range sols {
		byID[sol.Fault.ID()] = sol
	}
	for i, ct := range cts {
		for _, id := range ct.Members {
			sol := byID[id]
			if sol == nil {
				return fmt.Errorf("compacted test %d covers %s, which has no solution", i, id)
			}
			if sol.ConfigIdx != ct.ConfigIdx {
				return fmt.Errorf("compacted test %d (config index %d) covers %s, solved with config index %d",
					i, ct.ConfigIdx, id, sol.ConfigIdx)
			}
			f := sol.Fault.WithImpact(sol.Fault.InitialImpact())
			sc, err := sys.Sensitivity(ct.ConfigIdx, f, ct.Params)
			if err != nil {
				return fmt.Errorf("δ rule of %s: %w", id, err)
			}
			if limit := sol.Sensitivity + delta*(1-sol.Sensitivity); !(sc <= limit) {
				return fmt.Errorf("δ rule of %s in compacted test %d: S_f(T_c) = %g > %g", id, i, sc, limit)
			}
		}
	}
	return nil
}

// checkCoverage recomputes coverage with System.Sensitivity: a fault is
// detected exactly when some compacted test gives S_f < 0 at its
// dictionary impact.
func checkCoverage(sys *repro.System, faults []repro.Fault, cts []repro.CompactTest, cov repro.CoverageReport) error {
	if cov.Total != len(faults) {
		return fmt.Errorf("coverage over %d faults, want %d", cov.Total, len(faults))
	}
	detected := 0
	for _, f := range faults {
		fd := f.WithImpact(f.InitialImpact())
		hit := false
		for _, ct := range cts {
			s, err := sys.Sensitivity(ct.ConfigIdx, fd, ct.Params)
			if err != nil {
				return fmt.Errorf("coverage of %s: %w", f.ID(), err)
			}
			if s < 0 {
				hit = true
				break
			}
		}
		if _, reported := cov.DetectedBy[f.ID()]; reported != hit {
			return fmt.Errorf("coverage of %s: reported detected=%v, recomputed %v", f.ID(), reported, hit)
		}
		if hit {
			detected++
		}
	}
	if cov.Detected != detected {
		return fmt.Errorf("coverage reports %d detected faults, recomputed %d", cov.Detected, detected)
	}
	return nil
}

// checkBytes requires an operation's encoded result to equal the run's
// reference bytes.
func checkBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result bytes differ from the reference (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// auditJournal checks a distributed job's stitched journal: it must pass
// obs.Validate and hold a worker_join for every worker named in its
// shard_assign events.
func auditJournal(data []byte) error {
	if _, err := obs.Validate(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("journal invalid: %w", err)
	}
	joined := map[string]bool{}
	var assigned []string
	for _, ev := range parseEvents(data) {
		if ev.Type != obs.TypeEvent {
			continue
		}
		w, _ := ev.Attrs["worker"].(string)
		switch ev.Name {
		case "worker_join":
			joined[w] = true
		case "shard_assign":
			assigned = append(assigned, w)
		}
	}
	if len(assigned) == 0 {
		return fmt.Errorf("journal holds no shard_assign event")
	}
	for _, w := range assigned {
		if !joined[w] {
			return fmt.Errorf("journal assigns a shard to worker %q but holds no worker_join for it", w)
		}
	}
	return nil
}
