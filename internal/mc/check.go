package mc

import (
	"fmt"
	"reflect"

	"repro/internal/sim"
	"repro/internal/stream"
)

// crossCheck re-runs the replication on the cycle-accurate oracle and
// fails on any difference — the Monte-Carlo layer's end-to-end guard
// that the event engine's statistics are byte-identical to the
// oracle's on the exact workloads under study.
func crossCheck(set *stream.Set, cfg sim.Config, got *sim.Result) error {
	s, err := sim.New(set, cfg)
	if err != nil {
		return fmt.Errorf("check (cycle engine): %w", err)
	}
	want := s.Run()
	if reflect.DeepEqual(want, got) {
		return nil
	}
	for i := range want.PerStream {
		if !reflect.DeepEqual(want.PerStream[i], got.PerStream[i]) {
			return fmt.Errorf("check: stream %d stats differ between engines:\n cycle: %+v\n event: %+v",
				i, want.PerStream[i], got.PerStream[i])
		}
	}
	return fmt.Errorf("check: results differ between engines (channel stats or run-level scalars)")
}
