// The single-core hot-path regression guard over the committed
// BENCH_hotpath.json record, mirroring TestParallelScalingGuard's
// shape: structural validation of the committed record everywhere,
// plus a live before/after re-measure when the runner has the time.
// The record floor pins the speedup the committed measurement actually
// achieved (with a noise margin below it), so a regenerated record
// that silently loses the overhaul's advantage fails the build; the
// live comparison fails if the optimized engine has regressed to >10%
// slower than the retained baseline — a floor loose enough for
// shared-runner noise but tight enough to catch the optimized path
// losing its advantage outright.
package tanglefind_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"tanglefind/internal/experiments"
)

// hotPathRecordFloor is the regression bar for the committed record:
// a full-scale BENCH_hotpath.json must show the overhauled engine at
// least this far ahead of the retained pre-overhaul loop on the
// million-cell flat find. The committed measurement achieved 1.28x
// flat on the 1-CPU reference runner, whose run-to-run noise band is
// roughly ±15%; the floor sits one noise band below that, so the guard
// pins what was actually measured and trips only when a regenerated
// record documents a real regression.
const hotPathRecordFloor = 1.1

func loadHotPathRecord(t *testing.T) *experiments.HotPathRecord {
	t.Helper()
	data, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatalf("committed hotpath record missing: %v (regenerate with gtlexp -exp hotpath -scale full -dump .)", err)
	}
	var rec experiments.HotPathRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("BENCH_hotpath.json: %v", err)
	}
	return &rec
}

func TestHotPathSpeedupGuard(t *testing.T) {
	rec := loadHotPathRecord(t)
	if len(rec.Results) == 0 {
		t.Fatal("record holds no workload rows")
	}
	if rec.CPUs < 1 || rec.Scale <= 0 || rec.Seeds <= 0 {
		t.Fatalf("implausible record provenance: cpus=%d scale=%g seeds=%d", rec.CPUs, rec.Scale, rec.Seeds)
	}
	var million *experiments.HotPathResult
	for _, row := range rec.Results {
		if !row.Match {
			t.Fatalf("%s row recorded an equivalence mismatch; the record is invalid", row.Name)
		}
		if row.BaselineMS <= 0 || row.OptimizedMS <= 0 || row.Speedup <= 0 {
			t.Fatalf("%s row has no timing: %+v", row.Name, row)
		}
		if row.Cells <= 0 || row.Pins <= 0 || row.GTLs <= 0 {
			t.Fatalf("%s row has implausible workload shape: %+v", row.Name, row)
		}
		if row.Name == "million" {
			million = row
		}
	}
	if million == nil {
		t.Fatal("record lacks the million-cell headline row")
	}
	if rec.Scale >= 1 && million.Speedup < hotPathRecordFloor {
		t.Errorf("full-scale million speedup %.2fx below the %.2fx record floor; the committed record no longer supports the headline claim",
			million.Speedup, hotPathRecordFloor)
	}

	if testing.Short() {
		t.Skip("short mode: record validated, live re-measure skipped")
	}
	// The live regression comparison: re-run the before/after on a
	// small million-geometry workload. Absolute speedups at this scale
	// are far below the full-scale headline (the baseline's pathologies
	// grow with the working set), so the floor only asserts that the
	// optimized engine has not fallen meaningfully behind the baseline.
	cfg := experiments.Config{Scale: 0.05, Seeds: 24, Seed: 1}
	fresh, err := experiments.HotPathRun(context.Background(), experiments.MultilevelCases[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Speedup < 0.9 {
		t.Errorf("live hot-path regression: optimized engine at %.2fx of baseline (<0.9x) on %d cells",
			fresh.Speedup, fresh.Cells)
	} else {
		t.Logf("live hot path: %.2fx optimized over baseline on %d cells (committed full-scale: %.2fx)",
			fresh.Speedup, fresh.Cells, million.Speedup)
	}
}
