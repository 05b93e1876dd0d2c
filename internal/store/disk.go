package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DiskBackend persists a Store under one data directory:
//
//	<dir>/blobs/<digest>   raw uploaded/derived payload bytes
//	<dir>/journal.log      append-only record log
//
// The journal frames each record as
//
//	[4-byte LE payload length][4-byte LE IEEE CRC32 of payload][payload JSON]
//
// and fsyncs after every append, so a record either replays intact or
// fails its frame check. Replay stops at the first short or
// checksum-failing frame and truncates the file there — a torn tail
// from a crash mid-append costs exactly the record being written,
// never earlier history (records behind it were already synced).
//
// An append whose write or fsync fails is rolled back: the journal is
// truncated to the end of the last good record, so a short write never
// leaves a partial frame mid-log for replay to stop at (which would
// discard every good record appended after it). If the rollback itself
// fails, the backend refuses every later append.
//
// Blobs are written to a temp file, synced, then renamed into place,
// so a blob path either holds the complete payload or does not exist.
// The blobs directory is synced after the rename, and the data
// directory after OpenDisk creates its entries, so a directory entry
// is durable before any journal record that depends on it is written:
// a crash cannot keep a record whose blob vanished.
type DiskBackend struct {
	dir string

	mu      sync.Mutex // serializes journal appends
	journal journalFile
	end     int64 // offset just past the last good record
	failed  error // set when a failed append could not be rolled back

	// syncDir makes a directory's entries durable (fsyncDir); tests
	// replace it to inject faults and observe ordering.
	syncDir func(dir string) error
}

// journalFile is the part of *os.File the journal uses, so tests can
// inject write, sync and truncate faults.
type journalFile interface {
	io.ReadWriteSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// journal frame header: payload length + payload CRC32 (IEEE).
const frameHeaderLen = 8

// maxJournalRecord bounds one record's payload so a corrupt length
// field cannot drive a multi-gigabyte allocation on replay. Journal
// records hold metadata and wire results, never netlist payloads.
const maxJournalRecord = 64 << 20

// OpenDisk opens (creating as needed) the data directory and its
// journal. The returned backend is ready for Replay.
func OpenDisk(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	j, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	// Make the blobs/ and journal.log entries durable before the first
	// append can depend on them.
	if err := fsyncDir(dir); err != nil {
		j.Close()
		return nil, fmt.Errorf("store: data dir sync: %w", err)
	}
	// Appends extend the log even if the caller skips Replay (which
	// re-positions the cursor itself after truncating any torn tail).
	end, err := j.Seek(0, io.SeekEnd)
	if err != nil {
		j.Close()
		return nil, err
	}
	return &DiskBackend{dir: dir, journal: j, end: end, syncDir: fsyncDir}, nil
}

// fsyncDir fsyncs a directory, making the entries created or renamed
// in it durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the backend's data directory.
func (b *DiskBackend) Dir() string { return b.dir }

// JournalPath returns the journal file's path (tests use it to
// simulate torn writes).
func (b *DiskBackend) JournalPath() string { return filepath.Join(b.dir, "journal.log") }

func (b *DiskBackend) Durable() bool { return true }

func (b *DiskBackend) blobPath(digest string) string {
	return filepath.Join(b.dir, "blobs", digest)
}

// PutBlob returns nil only once the blob's directory entry is durable.
// A blob already in place is not rewritten (content-addressed: same
// digest, same bytes), but its directory is still synced: it may be
// left from an earlier call whose directory sync failed.
func (b *DiskBackend) PutBlob(digest string, data []byte) error {
	path := b.blobPath(digest)
	if _, err := os.Stat(path); err != nil {
		if err := writeBlob(path, digest, data); err != nil {
			return err
		}
	}
	if err := b.syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: blob dir sync: %w", err)
	}
	return nil
}

// writeBlob writes data to a synced temp file and renames it to path.
func writeBlob(path, digest string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest+".tmp*")
	if err != nil {
		return fmt.Errorf("store: blob temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: blob write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: blob sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: blob close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: blob rename: %w", err)
	}
	return nil
}

func (b *DiskBackend) GetBlob(digest string) ([]byte, error) {
	data, err := os.ReadFile(b.blobPath(digest))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoBlob
	}
	return data, err
}

func (b *DiskBackend) HasBlob(digest string) bool {
	_, err := os.Stat(b.blobPath(digest))
	return err == nil
}

func (b *DiskBackend) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal journal record: %w", err)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.journal == nil {
		return errors.New("store: journal closed")
	}
	if b.failed != nil {
		return fmt.Errorf("store: journal unusable since a failed append could not be rolled back: %w", b.failed)
	}
	_, err = b.journal.Write(frame)
	if err != nil {
		err = fmt.Errorf("store: journal append: %w", err)
	} else if serr := b.journal.Sync(); serr != nil {
		err = fmt.Errorf("store: journal sync: %w", serr)
	}
	if err != nil {
		if rerr := b.rollback(); rerr != nil {
			b.failed = rerr
			return errors.Join(err, rerr)
		}
		return err
	}
	b.end += int64(len(frame))
	return nil
}

// rollback cuts the journal back to the end of the last good record
// and puts the write cursor there, discarding whatever part of a failed
// append reached the file. Callers hold b.mu.
func (b *DiskBackend) rollback() error {
	if err := b.journal.Truncate(b.end); err != nil {
		return fmt.Errorf("store: journal rollback: %w", err)
	}
	if _, err := b.journal.Seek(b.end, io.SeekStart); err != nil {
		return fmt.Errorf("store: journal rollback: %w", err)
	}
	return nil
}

// Replay reads the journal from the start, applying every intact
// record. The first frame that is short (torn tail) or fails its
// checksum (torn payload) ends the replay: the file is truncated at
// the last good offset so subsequent appends extend a clean log.
func (b *DiskBackend) Replay(fn func(Record) error) (ReplayStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var st ReplayStats
	size, err := b.journal.Seek(0, io.SeekEnd)
	if err != nil {
		return st, err
	}
	if _, err := b.journal.Seek(0, io.SeekStart); err != nil {
		return st, err
	}
	r := &countingReader{r: b.journal}
	var good int64 // offset just past the last intact record
	for {
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or a short header: stop either way
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxJournalRecord {
			break // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != want {
			break // bit rot or a torn-then-overwritten frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // checksummed garbage should be impossible; stop cleanly
		}
		if err := fn(rec); err != nil {
			return st, err
		}
		st.Records++
		good = r.n
	}
	if good < size {
		st.TruncatedBytes = size - good
		if err := b.journal.Truncate(good); err != nil {
			return st, fmt.Errorf("store: truncate torn journal tail: %w", err)
		}
	}
	// Leave the write cursor at the end for O_RDWR appends.
	if _, err := b.journal.Seek(good, io.SeekStart); err != nil {
		return st, err
	}
	b.end = good
	return st, nil
}

func (b *DiskBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.journal == nil {
		return nil
	}
	err := b.journal.Close()
	b.journal = nil
	return err
}

// countingReader tracks how many bytes have been consumed, giving
// Replay the exact offset of the last intact record boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
