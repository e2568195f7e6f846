package explore

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

// validateSpace is the explore-smoke 8-point grid (topology × VCs ×
// buffer) whose fully-admitting points exercise simulator validation.
func validateSpace() Space {
	return Space{
		Topologies: []string{"mesh2d-10x10", "ring-4"},
		Routings:   []string{RoutingCanonical},
		VCs:        []int{1, 4},
		Buffers:    []int{1, 2},
		Policies:   []string{PolicyWorkload},
	}
}

func validateWorkload(t *testing.T) Workload {
	t.Helper()
	w, err := PaperPool(12, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSweepValidationMatchesOracle validates the smoke grid with every
// validation run checked against the cycle-accurate oracle: the
// misses and deliveries each validated point reports must equal a
// sim.New run of the same admitted set. The grid validates points
// with and without misses, so both verdicts are covered.
func TestSweepValidationMatchesOracle(t *testing.T) {
	orig := simulate
	var mu sync.Mutex
	var runs []string // one "misses/delivered" per validation run
	simulate = func(set *stream.Set, cfg sim.Config) (*sim.Result, error) {
		got, err := orig(set, cfg)
		if err != nil {
			return nil, err
		}
		oracle, err := sim.New(set, cfg)
		if err != nil {
			return nil, err
		}
		want := oracle.Run()
		if got.TotalMisses() != want.TotalMisses() || got.TotalDelivered() != want.TotalDelivered() {
			t.Errorf("validation run: event engine %d misses, %d deliveries; oracle %d, %d",
				got.TotalMisses(), got.TotalDelivered(), want.TotalMisses(), want.TotalDelivered())
		}
		mu.Lock()
		runs = append(runs, fmt.Sprintf("%d/%d", got.TotalMisses(), got.TotalDelivered()))
		mu.Unlock()
		return got, nil
	}
	defer func() { simulate = orig }()

	res, err := Sweep(validateWorkload(t), validateSpace(), SweepConfig{
		Seed: 1, Eval: EvalConfig{Validate: true, ValidateCycles: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var validated []string
	missed := 0
	for i := range res.Points {
		if p := &res.Points[i]; p.Validated {
			validated = append(validated, fmt.Sprintf("%d/%d", p.SimMisses, p.SimDelivered))
			if p.SimMisses > 0 {
				missed++
			}
		}
	}
	slices.Sort(runs)
	slices.Sort(validated)
	if !slices.Equal(runs, validated) {
		t.Fatalf("validated points report misses/deliveries %v, validation runs gave %v", validated, runs)
	}
	if missed == 0 || missed == len(validated) {
		t.Fatalf("%d of %d validated points missed deadlines; want some with and some without", missed, len(validated))
	}
}

// TestSweepValidateErrorStaysInPoint injects a failing validation run
// and checks the sweep completes with the error recorded on the point
// instead of aborting the study.
func TestSweepValidateErrorStaysInPoint(t *testing.T) {
	orig := simulate
	simulate = func(set *stream.Set, cfg sim.Config) (*sim.Result, error) {
		return nil, errors.New("injected engine failure")
	}
	defer func() { simulate = orig }()

	w := validateWorkload(t)
	res, err := Sweep(w, validateSpace(), SweepConfig{
		Seed: 1, Eval: EvalConfig{Validate: true, ValidateCycles: 3000},
	})
	if err != nil {
		t.Fatalf("sweep aborted on a validation error: %v", err)
	}
	failed := 0
	for i := range res.Points {
		p := &res.Points[i]
		if !p.FullyAdmitted {
			if p.ValidateError != "" {
				t.Fatalf("point %d not fully admitted but has validate error %q", p.Index, p.ValidateError)
			}
			continue
		}
		failed++
		if !strings.Contains(p.ValidateError, "injected engine failure") {
			t.Fatalf("point %d missing injected error: %+v", p.Index, p)
		}
		if p.Validated || p.Admitting {
			t.Fatalf("point %d counted as validated/admitting despite the failure: %+v", p.Index, p)
		}
	}
	if failed == 0 {
		t.Fatal("no fully-admitting point hit the injected failure")
	}

	// The error travels into the CSV artifact too.
	csv, err := res.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "validateError") || !strings.Contains(string(csv), "injected engine failure") {
		t.Fatal("CSV output missing the validate error column or value")
	}
}
