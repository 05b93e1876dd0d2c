// The single-core record guard: structural validation of the committed
// BENCH_hotpath.json, the reference the Phase III speedup target is
// measured against. A regenerated record that loses its provenance,
// its workload shape, its timings or its million-cell headline row
// fails the build.
package tanglefind_test

import (
	"encoding/json"
	"os"
	"testing"

	"tanglefind/internal/core"
	"tanglefind/internal/experiments"
)

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
		if row.Cells <= 0 || row.Pins <= 0 || row.GTLs <= 0 || row.Seeds != rec.Seeds {
			t.Fatalf("%s row has implausible workload shape: %+v", row.Name, row)
		}
		if row.OptimizedMS <= 0 {
			t.Fatalf("%s row has no timing: %+v", row.Name, row)
		}
		for _, stage := range []string{core.StageGrow, core.StageScore, core.StageRecombine, core.StagePrune} {
			if row.OptimizedStages[stage] <= 0 {
				t.Fatalf("%s row lacks stage %q: %v", row.Name, stage, row.OptimizedStages)
			}
		}
		if row.Name == "million" {
			million = row
		}
	}
	if million == nil {
		t.Fatal("record lacks the million-cell headline row")
	}
	if rec.Scale >= 1 && million.Cells < 1_000_000 {
		t.Errorf("full-scale record's million row has %d cells", million.Cells)
	}
}
