package store

import (
	"encoding/json"
	"errors"

	"tanglefind/api"
	"tanglefind/internal/netlist"
)

// ErrNoBlob is returned by Backend.GetBlob for digests whose payload
// the backend does not hold.
var ErrNoBlob = errors.New("store: no blob for digest")

// Record kinds in the journal. Every record is one self-contained JSON
// document; replay applies them in append order with last-writer-wins
// semantics per key, so duplicated records (e.g. from a racing upload
// of identical bytes) are harmless.
const (
	// RecNetlist registers a digest's metadata. The payload bytes are
	// stored separately (PutBlob) and re-parsed lazily on first touch,
	// so replay is O(journal), not O(pins).
	RecNetlist = "netlist"
	// RecLineage attaches delta lineage (parent digest + dirty cells)
	// to a digest. Always appended after the digest's RecNetlist, so a
	// torn tail can never leave lineage for an unknown netlist.
	RecLineage = "lineage"
	// RecResult journals one completed job result under its compute
	// identity (the jobs layer's cacheKey), rewarming the result cache
	// on restart.
	RecResult = "result"
)

// Record is one journal entry. Only the fields of its Kind are set.
type Record struct {
	Kind string `json:"kind"`
	// RecNetlist:
	Info *api.NetlistInfo `json:"info,omitempty"`
	// RecLineage:
	Digest string           `json:"digest,omitempty"`
	Parent string           `json:"parent,omitempty"`
	Dirty  []netlist.CellID `json:"dirty,omitempty"`
	// RecResult:
	Key    string          `json:"key,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Records is the number of intact records applied.
	Records int
	// TruncatedBytes is the size of the torn tail discarded (and
	// physically truncated) at the end of the journal: a crash mid-
	// append leaves a record with a short or checksum-failing frame,
	// which replay cuts off so the next append starts clean.
	TruncatedBytes int64
}

// Backend is the persistence layer behind a Store: a blob store for
// the raw .tfnet/.tfb payloads keyed by digest, plus an append-only
// record journal for everything that is not derivable from the blobs
// (registry membership, delta lineage, completed job results).
//
// Implementations must be safe for concurrent use. Append must be
// durable when it returns (fsync'd for disk backends); Replay is
// called once, before the Store serves traffic.
type Backend interface {
	// Durable reports whether the backend survives a process restart.
	Durable() bool
	// PutBlob stores data under digest, durably when it returns nil
	// for disk backends. Storing a digest that already exists rewrites
	// nothing (blobs are content-addressed, so equal digests mean
	// equal bytes).
	PutBlob(digest string, data []byte) error
	// GetBlob returns the payload stored under digest, or ErrNoBlob.
	GetBlob(digest string) ([]byte, error)
	// HasBlob reports whether digest's payload is retrievable.
	HasBlob(digest string) bool
	// Append durably adds one record to the journal.
	Append(rec Record) error
	// Replay streams the journal in append order, truncating any torn
	// tail, and reports what it did. fn returning an error aborts.
	Replay(fn func(Record) error) (ReplayStats, error)
	// Close releases the backend's resources.
	Close() error
}

// NullBackend is the in-memory no-op backend: nothing is persisted,
// nothing is recovered, every blob read misses. A Store built on it
// behaves exactly like the pre-durability registry — eviction means
// re-upload.
type NullBackend struct{}

func (NullBackend) Durable() bool                  { return false }
func (NullBackend) PutBlob(string, []byte) error   { return nil }
func (NullBackend) GetBlob(string) ([]byte, error) { return nil, ErrNoBlob }
func (NullBackend) HasBlob(string) bool            { return false }
func (NullBackend) Append(Record) error            { return nil }
func (NullBackend) Replay(func(Record) error) (ReplayStats, error) {
	return ReplayStats{}, nil
}
func (NullBackend) Close() error { return nil }
