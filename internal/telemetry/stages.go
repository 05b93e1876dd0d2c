package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageTimings is a flat stage-name → wall-time map: the project's
// export-friendly timing breakdown. The engine fills it with per-phase
// totals ("grow", "score", ...), the job manager prefixes those with
// "engine_" and adds "queue_wait"/"engine"/"merge", and anything
// holding one can Observe its entries into a histogram. It marshals to
// JSON as {"stage": milliseconds} with float millisecond values, so
// breakdowns diff cleanly in committed benchmark records.
//
// The zero value (nil) is readable but not writable; create with
// StageTimings{} before Add.
type StageTimings map[string]time.Duration

// Add folds d into the named stage.
func (t StageTimings) Add(name string, d time.Duration) { t[name] += d }

// Merge folds every stage of o into t. A nil o is a no-op.
func (t StageTimings) Merge(o StageTimings) {
	for name, d := range o {
		t[name] += d
	}
}

// String renders every stage as "name=dur", longest first (ties by
// name), space-separated — the one-line form used in experiment
// tables and logs.
func (t StageTimings) String() string { return t.Top(0) }

// Top renders like String but keeps only the n longest stages,
// appending "(+k)" for the k elided ones. n <= 0 keeps all.
func (t StageTimings) Top(n int) string {
	if len(t) == 0 {
		return "-"
	}
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if t[names[i]] != t[names[j]] {
			return t[names[i]] > t[names[j]]
		}
		return names[i] < names[j]
	})
	elided := 0
	if n > 0 && len(names) > n {
		elided = len(names) - n
		names = names[:n]
	}
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", name, t[name].Round(10*time.Microsecond))
	}
	if elided > 0 {
		fmt.Fprintf(&b, " (+%d)", elided)
	}
	return b.String()
}

// MarshalJSON writes {"stage": milliseconds} with float values.
// encoding/json sorts map keys, so the output is deterministic.
func (t StageTimings) MarshalJSON() ([]byte, error) {
	ms := make(map[string]float64, len(t))
	for name, d := range t {
		ms[name] = float64(d) / float64(time.Millisecond)
	}
	return json.Marshal(ms)
}

// UnmarshalJSON reads the {"stage": milliseconds} form.
func (t *StageTimings) UnmarshalJSON(data []byte) error {
	var ms map[string]float64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	out := make(StageTimings, len(ms))
	for name, v := range ms {
		out[name] = time.Duration(v * float64(time.Millisecond))
	}
	*t = out
	return nil
}
