// Package store is the serving layer's content-addressed netlist
// registry. Uploaded .tfnet/.tfb payloads are keyed by the SHA-256 of
// their bytes, parsed once into an immutable *netlist.Netlist shared
// by every job that references the digest, and paired with a lazily
// built tanglefind.Finder engine so repeated jobs over one netlist
// reuse the engine's cached hierarchies.
//
// Memory is bounded by a pin budget: when the pins of all loaded
// netlists exceed it, least-recently-used entries are evicted.
// Eviction drops the parsed netlist and engine but keeps the metadata
// as a tombstone (Loaded=false), so clients get "re-upload" instead
// of "never existed". Jobs that resolved their netlist before the
// eviction keep running — the hypergraph is immutable and only
// becomes collectable once the last job releases it.
//
// Durability is pluggable (Backend): Open replays a crash-safe
// journal of netlist metadata, delta lineage and completed job
// results, with payload blobs content-addressed on disk and lazily
// re-parsed on first touch. Under a durable backend, eviction and
// restarts are both invisible to clients — the blob reloads on
// demand — and ErrEvicted only remains reachable on the in-memory
// NullBackend.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/netlist"
)

// ErrNotFound is returned for digests never uploaded.
var ErrNotFound = fmt.Errorf("store: netlist not found")

// ErrEvicted is returned for digests whose netlist was evicted by the
// pin budget and whose payload the backend cannot re-read; it must be
// uploaded again. With a durable backend, eviction is invisible to
// callers — the blob is lazily re-parsed on the next touch.
var ErrEvicted = fmt.Errorf("store: netlist evicted (re-upload it)")

// Store is the registry. Safe for concurrent use.
type Store struct {
	backend   Backend
	mu        sync.Mutex
	pinBudget int64 // max Σ pins of loaded entries; <= 0 means unlimited
	pins      int64
	entries   map[string]*entry
	lru       *list.List // front = most recently used; element value is *entry
	evictions int64
	lazyLoads int64 // blobs re-parsed on touch (recovery or post-eviction)

	// Recovery bookkeeping, fixed after Open.
	recoveredNetlists int
	truncatedBytes    int64
	// recoveredResults holds the journal's job results until the jobs
	// layer drains them into its cache (RecoveredResults); the count
	// survives for stats.
	recoveredResults     map[string][]byte
	recoveredResultCount int
}

type entry struct {
	info   api.NetlistInfo
	nl     *netlist.Netlist
	finder *tanglefind.Finder // built on first Engine call
	elem   *list.Element      // nil once evicted
	// lineage survives eviction (it is metadata, like info): an
	// incremental job on a reloaded child can still find its parent.
	lineage *Lineage
}

// Lineage records how a delta-derived netlist relates to its parent:
// the parent digest and the dirty cell set of the edit, in the child
// id space. Incremental jobs use it to locate the parent's recorded
// state and to bound re-detection.
type Lineage struct {
	Parent string
	Dirty  []netlist.CellID
}

// New creates a registry that evicts least-recently-used netlists once
// the loaded pin total exceeds pinBudget (<= 0 disables eviction).
// Nothing is persisted: New is Open with the NullBackend.
func New(pinBudget int64) *Store {
	s, _ := Open(pinBudget, NullBackend{}) // NullBackend replay cannot fail
	return s
}

// Open creates a registry backed by b and replays b's journal:
// netlist metadata and delta lineage are fully recovered (payloads are
// lazily re-parsed from the blob store on first touch, so recovery
// cost is O(journal records), not O(pins)), and completed job results
// are staged for the jobs layer to rewarm its cache from
// (RecoveredResults). A torn journal tail — a crash mid-append — is
// truncated and reported in Stats, never an error.
func Open(pinBudget int64, b Backend) (*Store, error) {
	s := &Store{
		backend:          b,
		pinBudget:        pinBudget,
		entries:          make(map[string]*entry),
		lru:              list.New(),
		recoveredResults: make(map[string][]byte),
	}
	rs, err := b.Replay(func(rec Record) error {
		switch rec.Kind {
		case RecNetlist:
			if rec.Info == nil || rec.Info.Digest == "" {
				return nil // malformed but checksummed: skip, don't fail recovery
			}
			e, ok := s.entries[rec.Info.Digest]
			if !ok {
				e = &entry{}
				s.entries[rec.Info.Digest] = e
				s.recoveredNetlists++
			}
			lineage := e.lineage
			e.info = *rec.Info
			e.info.Loaded = false // resident only after the blob is re-parsed
			e.lineage = lineage
		case RecLineage:
			e, ok := s.entries[rec.Digest]
			if !ok {
				return nil // can't happen (lineage follows its netlist record)
			}
			if e.lineage == nil {
				e.lineage = &Lineage{Parent: rec.Parent, Dirty: rec.Dirty}
				if e.info.Parent == "" {
					e.info.Parent = rec.Parent
				}
			}
		case RecResult:
			if rec.Key != "" {
				s.recoveredResults[rec.Key] = rec.Result // last writer wins
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: journal replay: %w", err)
	}
	s.truncatedBytes = rs.TruncatedBytes
	s.recoveredResultCount = len(s.recoveredResults)
	return s, nil
}

// Close releases the backend. In-memory state stays usable, but
// nothing further is persisted.
func (s *Store) Close() error { return s.backend.Close() }

// Durable reports whether the store persists across restarts.
func (s *Store) Durable() bool { return s.backend.Durable() }

// AppendResult journals one completed job result under its compute
// identity so the result cache survives restarts. The jobs layer calls
// it after each cache fill; on a non-durable backend it is a no-op.
func (s *Store) AppendResult(key string, result json.RawMessage) error {
	return s.backend.Append(Record{Kind: RecResult, Key: key, Result: result})
}

// RecoveredResults drains the job results recovered by Open — one
// (cacheKey, api.JobResult JSON) pair per distinct key, last journal
// write winning. The jobs layer consumes it exactly once at startup.
func (s *Store) RecoveredResults() map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recoveredResults
	s.recoveredResults = nil
	return out
}

// Digest returns the registry key for a payload: lowercase hex
// SHA-256 of the raw bytes.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Ingest registers a payload: parses it (format autodetected by
// content), stores the netlist under its digest and returns the entry
// metadata. Re-uploading known bytes is idempotent and cheap when the
// netlist is still loaded; re-uploading an evicted digest reloads it.
// On a durable backend the payload and its metadata are journaled
// before Ingest returns, so the digest resolves after a restart.
func (s *Store) Ingest(data []byte) (api.NetlistInfo, error) {
	digest := Digest(data)

	// Fast path outside the parse: already loaded.
	s.mu.Lock()
	if e, ok := s.entries[digest]; ok && e.nl != nil {
		s.touch(e)
		info := e.info
		s.mu.Unlock()
		return info, nil
	}
	s.mu.Unlock()

	// Parse outside the lock; uploads must not block readers.
	nl, err := netlist.ReadAuto(bytes.NewReader(data))
	if err != nil {
		return api.NetlistInfo{}, err
	}
	if nl.NumCells() == 0 {
		return api.NetlistInfo{}, fmt.Errorf("store: empty netlist")
	}
	format := "tfnet"
	if len(data) >= 4 && string(data[:4]) == "TFBN" {
		format = "tfb"
	}
	return s.register(digest, format, data, nl, nil)
}

// ApplyDelta patches the parent netlist with a JSON delta document
// and registers the child under its own content address — the SHA-256
// of the patched netlist's canonical .tfb serialization, so identical
// post-edit netlists unify regardless of the edit path. The child
// entry records its lineage (parent digest + dirty cells); nothing is
// invalidated, because content addressing means the parent's caches
// and engines stay exactly as valid as they were.
//
// Re-applying a delta that lands on a known digest is idempotent (and
// reloads the netlist if it had been evicted); the first recorded
// lineage wins.
func (s *Store) ApplyDelta(parent string, deltaJSON []byte) (api.DeltaResult, error) {
	d, err := netlist.ParseDelta(deltaJSON)
	if err != nil {
		return api.DeltaResult{}, err
	}
	parentNL, _, err := s.Get(parent)
	if err != nil {
		return api.DeltaResult{}, err
	}
	// Patch and serialize outside the lock; edits must not block
	// readers. The parent netlist is immutable, so concurrent deltas
	// against one parent are safe.
	child, eff, err := d.Apply(parentNL)
	if err != nil {
		return api.DeltaResult{}, err
	}
	if child.NumCells() == 0 {
		return api.DeltaResult{}, fmt.Errorf("store: delta leaves an empty netlist")
	}
	var buf bytes.Buffer
	if err := child.WriteBinary(&buf); err != nil {
		return api.DeltaResult{}, err
	}
	digest := Digest(buf.Bytes())
	if digest == parent {
		// Identity edit on a canonically-serialized parent: the child
		// IS the parent. Report it without touching lineage — a digest
		// must never become its own delta ancestor.
		_, info, gerr := s.Get(parent)
		if gerr != nil {
			return api.DeltaResult{}, gerr
		}
		return api.DeltaResult{Parent: parent, Netlist: info, DirtyCells: len(eff.Dirty)}, nil
	}
	info, err := s.register(digest, "tfb", buf.Bytes(), child, &Lineage{Parent: parent, Dirty: eff.Dirty})
	if err != nil {
		return api.DeltaResult{}, err
	}
	return api.DeltaResult{
		Parent:       parent,
		Netlist:      info,
		DirtyCells:   len(eff.Dirty),
		CellsAdded:   eff.CellsAdded,
		CellsRemoved: eff.CellsRemoved,
		NetsAdded:    eff.NetsAdded,
		NetsRemoved:  eff.NetsRemoved,
	}, nil
}

// register is the registry's one write path, shared by Ingest and
// ApplyDelta: it persists the parsed netlist nl of payload data and
// registers it under digest, returning the entry's metadata.
//
// Persistence comes before registration, so a digest is never visible
// to clients without its blob and netlist record behind it: blob
// first, so replay never meets a record without bytes. A registered
// digest whose blob is present is not written again; an unregistered
// one is, even when its blob exists, since the blob may be left from
// an earlier attempt that failed before its record was written.
// Duplicate records from racing identical calls are last-writer-wins
// on replay and therefore harmless.
//
// A known digest is reloaded in place when evicted, so metadata not
// derivable from the bytes — lineage, Parent — survives an eviction
// and re-upload cycle. A non-nil lin is attached when the entry has no
// lineage yet (the first recorded lineage wins), backfilling Parent on
// an entry whose bytes were uploaded directly first, and only the call
// that attached it journals it. That lineage record therefore always
// lands behind its netlist record: a torn tail can strand a
// lineage-less netlist (harmless: it just loses incremental routing
// until the delta is re-applied) but never lineage pointing at an
// unknown digest.
func (s *Store) register(digest, format string, data []byte, nl *netlist.Netlist, lin *Lineage) (api.NetlistInfo, error) {
	st := nl.Stats()
	info := api.NetlistInfo{
		Digest:  digest,
		Format:  format,
		Bytes:   int64(len(data)),
		Cells:   st.Cells,
		Nets:    st.Nets,
		Pins:    st.Pins,
		AvgPins: st.AvgPins,
		Loaded:  true,
	}
	if lin != nil {
		info.Parent = lin.Parent
	}
	s.mu.Lock()
	_, known := s.entries[digest]
	s.mu.Unlock()
	if !known || !s.backend.HasBlob(digest) {
		if err := s.backend.PutBlob(digest, data); err != nil {
			return api.NetlistInfo{}, err
		}
		if err := s.backend.Append(Record{Kind: RecNetlist, Info: &info}); err != nil {
			return api.NetlistInfo{}, err
		}
	}

	s.mu.Lock()
	e, ok := s.entries[digest]
	if !ok {
		e = &entry{info: info}
		s.entries[digest] = e
	}
	attached := lin != nil && e.lineage == nil
	if attached {
		e.lineage = lin
		if e.info.Parent == "" {
			e.info.Parent = lin.Parent
		}
	}
	if e.nl == nil {
		s.loadLocked(e, nl)
	} else {
		s.touch(e) // lost a reload race; the winner's copy is equivalent
	}
	info = e.info
	s.mu.Unlock()

	if attached {
		if err := s.backend.Append(Record{Kind: RecLineage, Digest: digest, Parent: lin.Parent, Dirty: lin.Dirty}); err != nil {
			return api.NetlistInfo{}, err
		}
	}
	return info, nil
}

// Lineage returns a digest's delta lineage (parent + dirty cells), if
// it was produced by ApplyDelta. It survives eviction.
func (s *Store) Lineage(digest string) (*Lineage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok || e.lineage == nil {
		return nil, false
	}
	return e.lineage, true
}

// Get returns the loaded netlist for digest, refreshing its LRU
// position. A digest that is known but not resident (recovered from
// the journal, or evicted under a durable backend) is lazily re-parsed
// from the blob store; Get fails with ErrNotFound for unknown digests
// and ErrEvicted when no payload is retrievable.
func (s *Store) Get(digest string) (*netlist.Netlist, api.NetlistInfo, error) {
	_, nl, info, err := s.acquire(digest)
	return nl, info, err
}

// acquire resolves digest to a resident entry, re-parsing the blob on
// a miss (the lazy half of recovery). It returns with s.mu released;
// the returned netlist pointer stays valid regardless of later
// eviction (the hypergraph is immutable).
func (s *Store) acquire(digest string) (*entry, *netlist.Netlist, api.NetlistInfo, error) {
	s.mu.Lock()
	e, ok := s.entries[digest]
	if !ok {
		s.mu.Unlock()
		return nil, nil, api.NetlistInfo{}, ErrNotFound
	}
	if e.nl != nil {
		s.touch(e)
		nl, info := e.nl, e.info
		s.mu.Unlock()
		return e, nl, info, nil
	}
	s.mu.Unlock()

	// Not resident. Re-parse outside the lock: a recovery-sized replay
	// of blobs must not serialize every reader behind one parse.
	data, err := s.backend.GetBlob(digest)
	if err != nil {
		if errors.Is(err, ErrNoBlob) {
			return nil, nil, api.NetlistInfo{}, ErrEvicted
		}
		return nil, nil, api.NetlistInfo{}, err
	}
	nl, err := netlist.ReadAuto(bytes.NewReader(data))
	if err != nil {
		return nil, nil, api.NetlistInfo{}, fmt.Errorf("store: reload %s: %w", digest, err)
	}
	s.mu.Lock()
	if e.nl == nil {
		s.loadLocked(e, nl)
		s.lazyLoads++
	} else {
		s.touch(e) // lost a reload race; the winner's copy is equivalent
	}
	rnl, info := e.nl, e.info
	s.mu.Unlock()
	return e, rnl, info, nil
}

// Engine returns the shared finder engine for digest, building it on
// first use (and lazily reloading the netlist like Get). Jobs should
// hold the returned engine (it pins the netlist) rather than
// re-resolving the digest mid-run.
func (s *Store) Engine(digest string) (*tanglefind.Finder, api.NetlistInfo, error) {
	e, nl, _, err := s.acquire(digest)
	if err != nil {
		return nil, api.NetlistInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.nl == nil {
		// Evicted between acquire and here; the parse we hold is still
		// the digest's netlist, so reinstate it rather than failing.
		s.loadLocked(e, nl)
	}
	if e.finder == nil {
		f, ferr := tanglefind.NewFinder(e.nl)
		if ferr != nil {
			return nil, api.NetlistInfo{}, ferr
		}
		e.finder = f
	}
	s.touch(e)
	return e.finder, e.info, nil
}

// Info returns the metadata for digest, loaded or tombstoned.
func (s *Store) Info(digest string) (api.NetlistInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return api.NetlistInfo{}, false
	}
	return e.info, true
}

// List returns every entry's metadata in the API's documented total
// order: resident entries most recently used first, then non-resident
// entries (tombstones and not-yet-reloaded recovered digests) in
// ascending digest order. Two consecutive calls over an unchanged
// registry return identical listings.
func (s *Store) List() []api.NetlistInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.NetlistInfo, 0, len(s.entries))
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).info)
	}
	unloadedFrom := len(out)
	for _, e := range s.entries {
		if e.elem == nil {
			out = append(out, e.info)
		}
	}
	// Map iteration order is random; pin the tail so the listing is a
	// total order, not a per-call shuffle.
	tail := out[unloadedFrom:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].Digest < tail[j].Digest })
	return out
}

// Stats reports the registry's memory state. EngineBytes is the
// estimated footprint of the resident engines on top of the netlists
// the pin budget tracks — their cached coarsening hierarchies — plus,
// counted once, the idle worker scratch of the process-wide engine
// pool they all draw from.
func (s *Store) Stats() api.StoreStats {
	s.mu.Lock()
	finders := make([]*tanglefind.Finder, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.finder != nil {
			finders = append(finders, e.finder)
		}
	}
	st := api.StoreStats{
		Netlists:              s.lru.Len(),
		Tombstones:            len(s.entries) - s.lru.Len(),
		PinsLoaded:            s.pins,
		PinBudget:             max(s.pinBudget, 0),
		Evictions:             s.evictions,
		Durable:               s.backend.Durable(),
		RecoveredNetlists:     s.recoveredNetlists,
		RecoveredResults:      s.recoveredResultCount,
		LazyReloads:           s.lazyLoads,
		JournalTruncatedBytes: s.truncatedBytes,
	}
	s.mu.Unlock()
	// Estimate outside the registry lock: MemoryEstimate takes engine
	// locks, and a stats poll must never queue Ingest/Get behind them.
	st.EngineBytes = tanglefind.PooledScratchBytes()
	for _, f := range finders {
		st.EngineBytes += f.MemoryEstimate()
	}
	return st
}

// loadLocked makes e resident: attaches the parsed netlist, marks the
// metadata loaded, fronts the LRU and charges the pin budget (evicting
// as needed). Callers hold s.mu.
func (s *Store) loadLocked(e *entry, nl *netlist.Netlist) {
	e.nl = nl
	e.info.Loaded = true
	e.elem = s.lru.PushFront(e)
	s.pins += int64(e.info.Pins)
	s.evict()
}

// touch marks an entry most recently used; callers hold s.mu.
func (s *Store) touch(e *entry) {
	if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
}

// evict drops least-recently-used entries until the pin budget holds
// again, always sparing the most recent entry so a single netlist
// larger than the whole budget is still servable. Callers hold s.mu.
func (s *Store) evict() {
	if s.pinBudget <= 0 {
		return
	}
	for s.pins > s.pinBudget && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		e.elem = nil
		e.nl = nil
		e.finder = nil
		e.info.Loaded = false
		s.pins -= int64(e.info.Pins)
		s.evictions++
	}
}
