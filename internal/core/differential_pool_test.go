package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestDifferentialTable2Pool runs the dense oracle on every HP set of
// Table 2's first trial (60 streams, 1 level, seed 1002) after period
// inflation, at horizon 8,192: the §5 shape, where inflated periods
// make windows thousands of slots wide and one release re-lays dozens
// of rows. Under -short every fourth stream is checked.
func TestDifferentialTable2Pool(t *testing.T) {
	set, a, err := workload.Generate(workload.PaperDefaults(60, 1, 1002))
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if testing.Short() {
		stride = 4
	}
	for i := 0; i < set.Len(); i += stride {
		core.CheckHPSetDifferential(t, a, set.Streams[i].ID, 8192)
	}
}
