package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tanglefind/api"
)

// rawOpts marshals an options document.
func rawOpts(t *testing.T, opts map[string]any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCancelTransitions pins Cancel at each place a job can be when it
// arrives. Every row builds its scenario on a fresh one-worker manager,
// cancels the target and checks what Cancel returns, the state and
// error the target ends in, that the other jobs on its run still
// complete, and the counters once the manager has drained. A blocked
// row first parks a slow job on the worker so the scenario's jobs stay
// queued; the blocker is cancelled after the target, and its engine
// run and cancellation are added to the row's expected counts.
func TestCancelTransitions(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	quick := smallOpts(t, 6)
	medium := rawOpts(t, map[string]any{"seeds": 48, "max_order_len": 6000, "rand_seed": 31})
	slow := rawOpts(t, map[string]any{"seeds": 5000, "max_order_len": 12000, "rand_seed": 41})

	type submitFn func(opts json.RawMessage, timeoutMS int64) api.JobStatus
	cases := []struct {
		name    string
		blocked bool
		// setup submits the scenario and returns the job to cancel and
		// the other jobs sharing its run.
		setup    func(t *testing.T, m *Manager, sub submitFn) (string, []string)
		wantErr  error
		returned api.State // the status Cancel returns
		final    api.State
		errText  string
		// Expected counters, not counting the blocker.
		engineRuns, cancelled, completed, coalesced int64
	}{
		{
			name: "queued alone", blocked: true,
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				return sub(quick, 0).ID, nil
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled before start",
			cancelled: 1,
		},
		{
			name: "queued, first on a shared run", blocked: true,
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a, b := sub(quick, 0), sub(quick, 0)
				return a.ID, []string{b.ID}
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled before start",
			engineRuns: 1, cancelled: 1, completed: 1, coalesced: 1,
		},
		{
			name: "queued, later on a shared run", blocked: true,
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a, b := sub(quick, 0), sub(quick, 0)
				return b.ID, []string{a.ID}
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled before start",
			engineRuns: 1, cancelled: 1, completed: 1, coalesced: 1,
		},
		{
			name: "running alone",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a := sub(slow, 0)
				waitRunning(t, m, a.ID)
				return a.ID, nil
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled",
			engineRuns: 1, cancelled: 1,
		},
		{
			name: "running, shared run",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a, b := sub(medium, 0), sub(medium, 0)
				waitRunning(t, m, a.ID)
				return a.ID, []string{b.ID}
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled",
			engineRuns: 1, cancelled: 1, completed: 1, coalesced: 1,
		},
		{
			name: "attached after the run started",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a := sub(medium, 0)
				waitRunning(t, m, a.ID)
				b := sub(medium, 0)
				if b.State != api.StateRunning {
					t.Fatalf("submission onto a running run is %s, want running", b.State)
				}
				return b.ID, []string{a.ID}
			},
			returned: api.StateCancelled, final: api.StateCancelled, errText: "cancelled",
			engineRuns: 1, cancelled: 1, completed: 1, coalesced: 1,
		},
		{
			name: "cache hit",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				wait(t, m, sub(quick, 0).ID)
				hit := sub(quick, 0)
				if !hit.Cached {
					t.Fatalf("resubmission not a cache hit: %+v", hit)
				}
				return hit.ID, nil
			},
			returned: api.StateDone, final: api.StateDone,
			engineRuns: 1, completed: 1,
		},
		{
			name: "done",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a := sub(quick, 0)
				wait(t, m, a.ID)
				return a.ID, nil
			},
			returned: api.StateDone, final: api.StateDone,
			engineRuns: 1, completed: 1,
		},
		{
			name: "failed",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				a := sub(slow, 50)
				wait(t, m, a.ID)
				return a.ID, nil
			},
			returned: api.StateFailed, final: api.StateFailed, errText: "context deadline exceeded",
			engineRuns: 1,
		},
		{
			name: "unknown id",
			setup: func(t *testing.T, m *Manager, sub submitFn) (string, []string) {
				return "job-999999", nil
			},
			wantErr: ErrNoJob,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
			defer m.Shutdown(context.Background())
			sub := func(opts json.RawMessage, timeoutMS int64) api.JobStatus {
				t.Helper()
				st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts, TimeoutMS: timeoutMS})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			var blocker api.JobStatus
			if tc.blocked {
				blocker = blockWorker(t, m, digest)
			}
			target, others := tc.setup(t, m, sub)

			got, err := m.Cancel(target)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Cancel error = %v, want %v", err, tc.wantErr)
			}
			if err == nil && got.State != tc.returned {
				t.Errorf("Cancel returned state %s, want %s", got.State, tc.returned)
			}
			if tc.blocked {
				if _, err := m.Cancel(blocker.ID); err != nil {
					t.Fatal(err)
				}
			}
			if tc.wantErr == nil {
				// A failed run's error names how far the engine got; only
				// its cause is fixed.
				fin := wait(t, m, target)
				errOK := fin.Error == tc.errText || tc.final == api.StateFailed && strings.HasSuffix(fin.Error, tc.errText)
				if fin.State != tc.final || !errOK {
					t.Errorf("target ended %s (%q), want %s (%q)", fin.State, fin.Error, tc.final, tc.errText)
				}
			}
			for _, id := range others {
				if fin := wait(t, m, id); fin.State != api.StateDone || fin.Result == nil {
					t.Errorf("job %s on the target's run ended %s (%q), want done", id, fin.State, fin.Error)
				}
			}

			if err := m.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			runs, cancelled := tc.engineRuns, tc.cancelled
			if tc.blocked {
				runs++
				cancelled++
			}
			st := m.Stats()
			if st.EngineRuns != runs || st.Cancelled != cancelled || st.Completed != tc.completed || st.CoalescedJobs != tc.coalesced {
				t.Errorf("engine_runs/cancelled/completed/coalesced = %d/%d/%d/%d, want %d/%d/%d/%d",
					st.EngineRuns, st.Cancelled, st.Completed, st.CoalescedJobs,
					runs, cancelled, tc.completed, tc.coalesced)
			}
		})
	}
}

// TestTimeoutSplitsCoalescing: identical submissions with different
// timeouts run separately, so one submission's deadline cannot fail
// another that asked for none.
func TestTimeoutSplitsCoalescing(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
	defer m.Shutdown(context.Background())

	slow := rawOpts(t, map[string]any{"seeds": 5000, "max_order_len": 12000})
	short, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: slow, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	patient, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: slow})
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, m, short.ID); fin.State != api.StateFailed || !strings.HasSuffix(fin.Error, "context deadline exceeded") {
		t.Fatalf("50ms job ended %s (%q), want failed on its deadline", fin.State, fin.Error)
	}
	waitRunning(t, m, patient.ID)
	if st, _ := m.Status(patient.ID); st.State != api.StateRunning {
		t.Fatalf("job without a timeout is %s (%q), want running on its own run", st.State, st.Error)
	}
	if _, err := m.Cancel(patient.ID); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CoalescedJobs != 0 || st.EngineRuns != 2 {
		t.Errorf("coalesced_jobs = %d, engine_runs = %d; want 0 and 2", st.CoalescedJobs, st.EngineRuns)
	}
}

// TestMaxJobsBoundsTerminalRecords: a live record does not stop
// retirement; the oldest terminal records behind it are retired, so at
// most MaxJobs terminal records stay next to the live one.
func TestMaxJobsBoundsTerminalRecords(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	const maxJobs = 2
	m := New(Config{Store: s, Workers: 1, MaxJobs: maxJobs})
	defer m.Shutdown(context.Background())

	req := api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 6)}
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, first.ID)
	blocker := blockWorker(t, m, digest)
	var newest string
	for i := 0; i < 20; i++ {
		hit, err := m.Submit(req)
		if err != nil || !hit.Cached {
			t.Fatalf("submission %d: %+v, %v; want a cache hit", i, hit, err)
		}
		newest = hit.ID
	}
	terminal, live := 0, 0
	for _, st := range m.List() {
		if st.State.Terminal() {
			terminal++
		} else {
			live++
		}
	}
	if terminal > maxJobs || live != 1 {
		t.Errorf("retained %d terminal and %d live records, want at most %d terminal and the live blocker", terminal, live, maxJobs)
	}
	if _, err := m.Status(newest); err != nil {
		t.Errorf("newest record %s retired: %v", newest, err)
	}
	if _, err := m.Status(blocker.ID); err != nil {
		t.Errorf("live blocker retired: %v", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}
