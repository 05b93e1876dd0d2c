package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tanglefind"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// payload serializes a small planted-block netlist in the requested
// format.
func payload(t *testing.T, cells int, seed uint64, binary bool) []byte {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: cells, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if binary {
		err = rg.Netlist.WriteBinary(&buf)
	} else {
		err = rg.Netlist.Write(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestIdempotentAndAutodetect(t *testing.T) {
	s := New(0)
	text := payload(t, 300, 1, false)
	bin := payload(t, 300, 1, true)

	it, err := s.Ingest(text)
	if err != nil {
		t.Fatal(err)
	}
	if it.Format != "tfnet" || it.Cells != 300 || !it.Loaded {
		t.Errorf("text info = %+v", it)
	}
	ib, err := s.Ingest(bin)
	if err != nil {
		t.Fatal(err)
	}
	if ib.Format != "tfb" {
		t.Errorf("binary info = %+v", ib)
	}
	// Same hypergraph, different bytes: distinct registry identities.
	if it.Digest == ib.Digest {
		t.Error("text and binary payloads share a digest")
	}

	// Re-ingest returns the same entry without growing the registry.
	it2, err := s.Ingest(text)
	if err != nil {
		t.Fatal(err)
	}
	if it2.Digest != it.Digest {
		t.Error("re-ingest changed digest")
	}
	if st := s.Stats(); st.Netlists != 2 {
		t.Errorf("registry has %d entries, want 2", st.Netlists)
	}

	nl, _, err := s.Get(it.Digest)
	if err != nil || nl.NumCells() != 300 {
		t.Fatalf("Get: %v (cells %d)", err, nl.NumCells())
	}
	if _, _, err := s.Get("deadbeef"); err != ErrNotFound {
		t.Errorf("unknown digest error = %v", err)
	}
	if _, err := s.Ingest([]byte("not a netlist")); err == nil {
		t.Error("garbage payload accepted")
	}
}

func TestEngineSharedAndPinned(t *testing.T) {
	s := New(0)
	info, err := s.Ingest(payload(t, 400, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	f1, _, err := s.Engine(info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := s.Engine(info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Engine rebuilt per call; must be shared")
	}
	if f1.Netlist().NumCells() != 400 {
		t.Errorf("engine netlist cells = %d", f1.Netlist().NumCells())
	}
}

func TestEvictionByPinBudget(t *testing.T) {
	// Budget fits roughly two of the three netlists.
	first := payload(t, 400, 3, true)
	nl, err := netlist.ReadAuto(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(nl.NumPins()) * 5 / 2
	s := New(budget)

	var infos []string
	for i := uint64(3); i < 6; i++ {
		info, err := s.Ingest(payload(t, 400, i, true))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info.Digest)
	}
	st := s.Stats()
	if st.Evictions == 0 || st.PinsLoaded > budget {
		t.Fatalf("stats after overflow: %+v (budget %d)", st, budget)
	}
	// The oldest entry was evicted: tombstoned, not forgotten.
	if _, _, err := s.Get(infos[0]); err != ErrEvicted {
		t.Errorf("oldest entry error = %v, want ErrEvicted", err)
	}
	info, ok := s.Info(infos[0])
	if !ok || info.Loaded {
		t.Errorf("tombstone info = %+v, ok=%v", info, ok)
	}
	if _, _, err := s.Get(infos[2]); err != nil {
		t.Errorf("newest entry evicted: %v", err)
	}

	// Touching an entry protects it: access infos[1], ingest a fourth
	// netlist, and infos[1] must survive while infos[2] goes.
	if _, _, err := s.Get(infos[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(payload(t, 400, 6, true)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(infos[1]); err != nil {
		t.Errorf("recently used entry evicted: %v", err)
	}
	if _, _, err := s.Get(infos[2]); err != ErrEvicted {
		t.Errorf("LRU entry error = %v, want ErrEvicted", err)
	}

	// Re-uploading an evicted payload reloads it in place.
	reload, err := s.Ingest(payload(t, 400, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if reload.Digest != infos[0] || !reload.Loaded {
		t.Errorf("reload info = %+v", reload)
	}
	if _, _, err := s.Get(infos[0]); err != nil {
		t.Errorf("reloaded entry unreadable: %v", err)
	}
}

func TestSingleOversizeEntrySurvives(t *testing.T) {
	s := New(1) // absurd budget: every entry exceeds it
	info, err := s.Ingest(payload(t, 300, 9, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(info.Digest); err != nil {
		t.Errorf("sole oversize entry evicted: %v", err)
	}
	// A second ingest displaces it: the newest always survives.
	info2, err := s.Ingest(payload(t, 300, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(info2.Digest); err != nil {
		t.Errorf("new entry missing: %v", err)
	}
	if _, _, err := s.Get(info.Digest); err != ErrEvicted {
		t.Errorf("displaced entry error = %v", err)
	}
}

// TestBudgetChargesCachedHierarchies pins the registry's charge: a
// resident entry costs its netlist's pins plus the coarse-level pins
// its engine caches, so an engine that has served a multilevel run is
// evicted, hierarchy and all, as soon as the next netlist's load
// overflows the budget, while a flat-only engine costs no more than
// its netlist.
func TestBudgetChargesCachedHierarchies(t *testing.T) {
	ctx := context.Background()
	flat := tanglefind.DefaultOptions()
	flat.Seeds, flat.MaxOrderLen, flat.Workers = 4, 300, 1
	ml := flat
	ml.Levels, ml.MinCoarseCells = 3, 200
	a, b := payload(t, 3000, 21, true), payload(t, 3000, 22, true)
	pinsOf := func(data []byte) int64 {
		nl, err := netlist.ReadAuto(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return int64(nl.NumPins())
	}
	// The budget holds both netlists but not A's netlist plus A's
	// Levels-3 coarse levels.
	budget := pinsOf(a) + pinsOf(b)

	for _, tc := range []struct {
		name    string
		opt     tanglefind.Options
		evicted bool
	}{
		{"multilevel", ml, true},
		{"flat", flat, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(budget)
			ia, err := s.Ingest(a)
			if err != nil {
				t.Fatal(err)
			}
			f, _, err := s.Engine(ia.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Find(ctx, tc.opt); err != nil {
				t.Fatal(err)
			}
			cached := f.CachedPins()
			if (cached > 0) != tc.evicted {
				t.Fatalf("engine caches %d coarse pins after a %s run", cached, tc.name)
			}
			if tc.evicted && int64(ia.Pins)+cached <= budget {
				t.Fatalf("A's netlist and hierarchy (%d+%d pins) fit the budget %d; the case tests nothing", ia.Pins, cached, budget)
			}
			if got, want := s.Stats().PinsLoaded, int64(ia.Pins)+cached; got != want {
				t.Errorf("PinsLoaded = %d after the run; want the charge %d", got, want)
			}

			ib, err := s.Ingest(b)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			infoA, _ := s.Info(ia.Digest)
			wantPins, wantEvictions := int64(ia.Pins+ib.Pins), int64(0)
			if tc.evicted {
				wantPins, wantEvictions = int64(ib.Pins), 1
			}
			if infoA.Loaded == tc.evicted || st.Evictions != wantEvictions || st.PinsLoaded != wantPins {
				t.Errorf("after loading B: A loaded %v, evictions %d, PinsLoaded %d; want loaded %v, evictions %d, PinsLoaded %d",
					infoA.Loaded, st.Evictions, st.PinsLoaded, !tc.evicted, wantEvictions, wantPins)
			}
		})
	}

	// Multilevel runs publish hierarchies on an engine while another
	// goroutine loads netlists, so eviction and Stats read the engine's
	// hierarchy cache under the registry lock as it changes.
	t.Run("concurrent", func(t *testing.T) {
		nlA, err := netlist.ReadAuto(bytes.NewReader(a))
		if err != nil {
			t.Fatal(err)
		}
		h, err := netlist.BuildHierarchy(nlA, netlist.CoarsenOptions{Levels: ml.Levels, MinCells: ml.MinCoarseCells})
		if err != nil {
			t.Fatal(err)
		}
		var coarse int64
		for l := 1; l < h.NumLevels(); l++ {
			coarse += int64(h.Level(l).NumPins())
		}
		others := make([][]byte, 6)
		var maxPins int64
		for i := range others {
			others[i] = payload(t, 800, uint64(30+i), true)
			maxPins = max(maxPins, pinsOf(others[i]))
		}
		// A, its hierarchy and any one other netlist fit; A and two
		// others fit only while A's hierarchy is still building.
		s := New(pinsOf(a) + coarse + maxPins)
		ia, err := s.Ingest(a)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := s.Engine(ia.Digest)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		done := make(chan struct{})
		go func() {
			defer wg.Done()
			defer close(done)
			for range 3 {
				if _, err := f.Find(ctx, ml); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Load every other netlist but the last at least once, and
			// keep cycling through them until the finds finish.
			cycle := others[:len(others)-1]
			for i := 0; ; i++ {
				if i >= len(cycle) {
					select {
					case <-done:
						return
					default:
					}
				}
				// Touch A first, so every load reads its charge.
				if _, _, err := s.Get(ia.Digest); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Ingest(cycle[i%len(cycle)]); err != nil {
					t.Error(err)
					return
				}
				s.Stats()
			}
		}()
		wg.Wait()

		// With A's hierarchy published, one more load keeps exactly A
		// and the new netlist resident.
		if _, _, err := s.Get(ia.Digest); err != nil {
			t.Fatal(err)
		}
		last, err := s.Ingest(others[len(others)-1])
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if want := int64(ia.Pins) + coarse + int64(last.Pins); st.Netlists != 2 || st.PinsLoaded != want {
			t.Errorf("resident %d netlists charging %d pins; want A with its hierarchy and the last netlist: 2, %d", st.Netlists, st.PinsLoaded, want)
		}
		if info, _ := s.Info(ia.Digest); !info.Loaded {
			t.Error("A was evicted although it was touched before every load")
		}
		if want := int64(len(others) - 1); st.Evictions < want {
			t.Errorf("evictions = %d; want at least %d (every other netlist but the last)", st.Evictions, want)
		}
	})
}

func TestListOrder(t *testing.T) {
	s := New(0)
	var digests []string
	for i := uint64(1); i <= 3; i++ {
		info, err := s.Ingest(payload(t, 250, i, true))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, info.Digest)
	}
	// Touch the first so it becomes most recent.
	if _, _, err := s.Get(digests[0]); err != nil {
		t.Fatal(err)
	}
	l := s.List()
	if len(l) != 3 {
		t.Fatalf("list has %d entries", len(l))
	}
	if l[0].Digest != digests[0] {
		t.Errorf("most recent is %s, want %s", l[0].Digest, digests[0])
	}
}

func TestDigestStable(t *testing.T) {
	d := Digest([]byte("abc"))
	if d != fmt.Sprintf("%x", [32]byte{0xba, 0x78, 0x16, 0xbf, 0x8f, 0x01, 0xcf, 0xea,
		0x41, 0x41, 0x40, 0xde, 0x5d, 0xae, 0x22, 0x23,
		0xb0, 0x03, 0x61, 0xa3, 0x96, 0x17, 0x7a, 0x9c,
		0xb4, 0x10, 0xff, 0x61, 0xf2, 0x00, 0x15, 0xad}) {
		t.Errorf("Digest(abc) = %s", d)
	}
}

// deltaDoc builds a small reconnect delta against the registered
// netlist: rewire net 0 onto cells {0, 5}.
func deltaDoc() []byte {
	return []byte(`{"set_nets":[{"net":0,"cells":[0,5]}]}`)
}

func TestApplyDeltaRegistersChild(t *testing.T) {
	s := New(0)
	parent, err := s.Ingest(payload(t, 4000, 71, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyDelta(parent.Digest, deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Parent != parent.Digest || res.Netlist.Parent != parent.Digest {
		t.Fatalf("lineage not recorded: %+v", res)
	}
	if res.Netlist.Digest == parent.Digest {
		t.Fatal("child digest equals parent")
	}
	if res.DirtyCells == 0 {
		t.Fatal("no dirty cells reported")
	}
	lin, ok := s.Lineage(res.Netlist.Digest)
	if !ok || lin.Parent != parent.Digest || len(lin.Dirty) != res.DirtyCells {
		t.Fatalf("Lineage = %+v, %v", lin, ok)
	}
	if _, ok := s.Lineage(parent.Digest); ok {
		t.Fatal("parent has lineage")
	}
	// The child is a live, loadable entry.
	nl, info, err := s.Get(res.Netlist.Digest)
	if err != nil || !info.Loaded {
		t.Fatalf("child not loaded: %v", err)
	}
	if nl.NetSize(0) != 2 {
		t.Fatalf("edit not applied: net 0 has %d pins", nl.NetSize(0))
	}

	// Idempotent: same delta lands on the same digest, one entry.
	res2, err := s.ApplyDelta(parent.Digest, deltaDoc())
	if err != nil || res2.Netlist.Digest != res.Netlist.Digest {
		t.Fatalf("re-apply: %+v, %v", res2, err)
	}
	if n := len(s.List()); n != 2 {
		t.Fatalf("registry holds %d entries, want 2", n)
	}

	// Content addressing: uploading the child's canonical bytes lands
	// on the same digest.
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	up, err := s.Ingest(buf.Bytes())
	if err != nil || up.Digest != res.Netlist.Digest {
		t.Fatalf("content address mismatch: %+v, %v", up, err)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	s := New(0)
	if _, err := s.ApplyDelta("nope", deltaDoc()); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing parent: %v", err)
	}
	parent, err := s.Ingest(payload(t, 2000, 72, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(parent.Digest, []byte(`{"bogus":1}`)); err == nil {
		t.Error("malformed delta accepted")
	}
	if _, err := s.ApplyDelta(parent.Digest, []byte(`{"remove_cells":[99999999]}`)); err == nil {
		t.Error("out-of-range delta accepted")
	}
}

// TestLineageSurvivesEvictAndReupload: evicting a delta child and
// re-uploading its bytes must keep its lineage and Parent — the
// metadata is not derivable from the payload.
func TestLineageSurvivesEvictAndReupload(t *testing.T) {
	s := New(0)
	parent, err := s.Ingest(payload(t, 3000, 73, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyDelta(parent.Digest, deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	child := res.Netlist.Digest
	nl, _, err := s.Get(child)
	if err != nil {
		t.Fatal(err)
	}
	var childBytes bytes.Buffer
	if err := nl.WriteBinary(&childBytes); err != nil {
		t.Fatal(err)
	}

	// Touch the parent so the child is least recently used, then force
	// it out with a tiny budget (eviction spares the MRU entry).
	if _, _, err := s.Get(parent.Digest); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.pinBudget = 1
	s.evict()
	s.mu.Unlock()
	if _, _, err := s.Get(child); !errors.Is(err, ErrEvicted) {
		t.Fatalf("child not evicted: %v", err)
	}
	if lin, ok := s.Lineage(child); !ok || lin.Parent != parent.Digest {
		t.Fatalf("lineage lost at eviction: %+v, %v", lin, ok)
	}

	s.mu.Lock()
	s.pinBudget = 0
	s.mu.Unlock()
	info, err := s.Ingest(childBytes.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != child || !info.Loaded {
		t.Fatalf("re-upload landed elsewhere: %+v", info)
	}
	if info.Parent != parent.Digest {
		t.Errorf("re-upload dropped Parent: %+v", info)
	}
	if lin, ok := s.Lineage(child); !ok || lin.Parent != parent.Digest {
		t.Fatalf("lineage lost on re-upload: %+v, %v", lin, ok)
	}
}

// TestIdentityDeltaDoesNotSelfLineage: a no-op delta on a canonically
// serialized parent lands on the parent's own digest and must not make
// the digest its own ancestor.
func TestIdentityDeltaDoesNotSelfLineage(t *testing.T) {
	s := New(0)
	parent, err := s.Ingest(payload(t, 2000, 74, true)) // canonical .tfb bytes
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyDelta(parent.Digest, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Netlist.Digest != parent.Digest || res.Netlist.Parent != "" {
		t.Fatalf("identity delta result: %+v", res)
	}
	if _, ok := s.Lineage(parent.Digest); ok {
		t.Fatal("identity delta attached self-lineage")
	}
}

// TestLineageBackfillsParentOnConvergence: uploading the child bytes
// first and then reaching the same digest via a delta must leave the
// wire metadata (Parent) and Lineage agreeing.
func TestLineageBackfillsParentOnConvergence(t *testing.T) {
	s := New(0)
	parent, err := s.Ingest(payload(t, 3000, 75, true))
	if err != nil {
		t.Fatal(err)
	}
	// Compute the child bytes out-of-band and upload them directly.
	nl, _, err := s.Get(parent.Digest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := netlist.ParseDelta(deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	child, _, err := d.Apply(nl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := child.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	up, err := s.Ingest(buf.Bytes())
	if err != nil || up.Parent != "" {
		t.Fatalf("direct upload: %+v, %v", up, err)
	}
	// The delta converges on the uploaded digest and backfills Parent.
	res, err := s.ApplyDelta(parent.Digest, deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Netlist.Digest != up.Digest || res.Netlist.Parent != parent.Digest {
		t.Fatalf("converged delta result: %+v", res)
	}
	if info, ok := s.Info(up.Digest); !ok || info.Parent != parent.Digest {
		t.Fatalf("registry metadata not backfilled: %+v", info)
	}
	if lin, ok := s.Lineage(up.Digest); !ok || lin.Parent != parent.Digest {
		t.Fatalf("lineage missing: %+v, %v", lin, ok)
	}
}
