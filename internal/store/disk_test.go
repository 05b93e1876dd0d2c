package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tanglefind/api"
	"tanglefind/internal/netlist"
)

// reopen cycles a disk backend: close, reopen the same directory.
func reopen(t *testing.T, b *DiskBackend) *DiskBackend {
	t.Helper()
	dir := b.Dir()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	nb, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return nb
}

// replayAll collects every intact record.
func replayAll(t *testing.T, b *DiskBackend) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	st, err := b.Replay(func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, st
}

func TestDiskJournalRoundTrip(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	want := []Record{
		{Kind: RecNetlist, Info: &api.NetlistInfo{Digest: "aaa", Cells: 10, Pins: 40}},
		{Kind: RecLineage, Digest: "bbb", Parent: "aaa", Dirty: []netlist.CellID{1, 2, 3}},
		{Kind: RecResult, Key: "find|aaa|0|{}", Result: json.RawMessage(`{"candidates":7}`)},
	}
	for _, r := range want {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	b = reopen(t, b)
	defer b.Close()
	got, st := replayAll(t, b)
	if st.TruncatedBytes != 0 {
		t.Errorf("clean journal reported %d truncated bytes", st.TruncatedBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if got[0].Info == nil || got[0].Info.Digest != "aaa" || got[0].Info.Pins != 40 {
		t.Errorf("netlist record = %+v", got[0])
	}
	if got[1].Parent != "aaa" || len(got[1].Dirty) != 3 {
		t.Errorf("lineage record = %+v", got[1])
	}
	if got[2].Key == "" || string(got[2].Result) != `{"candidates":7}` {
		t.Errorf("result record = %+v", got[2])
	}

	// Appending after a replay extends the log, never overwrites it.
	if err := b.Append(Record{Kind: RecResult, Key: "k2", Result: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	b = reopen(t, b)
	defer b.Close()
	if got, _ := replayAll(t, b); len(got) != 4 {
		t.Fatalf("after post-replay append: %d records, want 4", len(got))
	}
}

func TestDiskJournalTornTailTruncated(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Append(Record{Kind: RecResult, Key: "k", Result: json.RawMessage(`0`)}); err != nil {
			t.Fatal(err)
		}
	}
	intact, err := os.Stat(b.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a torn frame: a header promising more
	// payload than made it to disk.
	f, err := os.OpenFile(b.JournalPath(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b = reopen(t, b)
	defer b.Close()
	got, st := replayAll(t, b)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", len(got))
	}
	if st.TruncatedBytes != 6 {
		t.Errorf("truncated %d bytes, want 6", st.TruncatedBytes)
	}
	if fi, _ := os.Stat(b.JournalPath()); fi.Size() != intact.Size() {
		t.Errorf("journal size %d after truncation, want %d", fi.Size(), intact.Size())
	}
	// The log is clean again: the next append replays intact.
	if err := b.Append(Record{Kind: RecResult, Key: "fresh", Result: json.RawMessage(`1`)}); err != nil {
		t.Fatal(err)
	}
	b = reopen(t, b)
	defer b.Close()
	if got, st := replayAll(t, b); len(got) != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("after recovery append: %d records, %d truncated", len(got), st.TruncatedBytes)
	}
}

func TestDiskJournalChecksumCutsCorruptRecord(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 2; i++ {
		if err := b.Append(Record{Kind: RecResult, Key: "k", Result: json.RawMessage(`0`)}); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte inside the second record.
	data, err := os.ReadFile(b.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(b.JournalPath(), data, 0o644); err != nil {
		t.Fatal(err)
	}

	b = reopen(t, b)
	defer b.Close()
	got, st := replayAll(t, b)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (corrupt second record dropped)", len(got))
	}
	if st.TruncatedBytes == 0 {
		t.Error("corrupt record not counted as truncated")
	}
}

func TestDiskBlobs(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.HasBlob("d1") {
		t.Error("HasBlob on empty store")
	}
	if _, err := b.GetBlob("d1"); !errors.Is(err, ErrNoBlob) {
		t.Errorf("GetBlob miss error = %v, want ErrNoBlob", err)
	}
	if err := b.PutBlob("d1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutBlob("d1", []byte("payload")); err != nil {
		t.Fatal(err) // content-addressed re-put is a no-op
	}
	data, err := b.GetBlob("d1")
	if err != nil || string(data) != "payload" {
		t.Fatalf("GetBlob = %q, %v", data, err)
	}
	if !b.HasBlob("d1") {
		t.Error("HasBlob after put")
	}
}

// tornBackend simulates a crash mid-journal-append: the configured
// append writes only half its frame to disk, exactly what a power cut
// between write and sync can leave behind.
type tornBackend struct {
	*DiskBackend
	tearAt int // 1-based Append call to tear; 0 tears nothing
	calls  int
}

func (tb *tornBackend) Append(rec Record) error {
	tb.calls++
	if tb.calls != tb.tearAt {
		return tb.DiskBackend.Append(rec)
	}
	before, err := os.Stat(tb.JournalPath())
	if err != nil {
		return err
	}
	if err := tb.DiskBackend.Append(rec); err != nil {
		return err
	}
	after, err := os.Stat(tb.JournalPath())
	if err != nil {
		return err
	}
	cut := before.Size() + (after.Size()-before.Size())/2
	return os.Truncate(tb.JournalPath(), cut)
}

func TestStoreRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(0, b)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(t, 300, 7, true)
	info, err := s.Ingest(data)
	if err != nil {
		t.Fatal(err)
	}
	child, err := s.ApplyDelta(info.Digest, deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResult("find|key", json.RawMessage(`{"candidates":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: metadata and lineage recover from the journal alone.
	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(0, b2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if !st.Durable || st.RecoveredNetlists != 2 || st.RecoveredResults != 1 {
		t.Fatalf("recovery stats = %+v", st)
	}
	if st.Netlists != 0 {
		t.Errorf("%d netlists resident before first touch, want 0 (lazy)", st.Netlists)
	}
	ri, ok := s2.Info(info.Digest)
	if !ok || ri.Loaded || ri.Cells != info.Cells {
		t.Fatalf("recovered parent info = %+v, %v", ri, ok)
	}
	lin, ok := s2.Lineage(child.Netlist.Digest)
	if !ok || lin.Parent != info.Digest || len(lin.Dirty) == 0 {
		t.Fatalf("recovered lineage = %+v, %v", lin, ok)
	}
	res := s2.RecoveredResults()
	if string(res["find|key"]) != `{"candidates":3}` {
		t.Fatalf("recovered results = %v", res)
	}
	if again := s2.RecoveredResults(); len(again) != 0 {
		t.Error("RecoveredResults drained twice")
	}

	// First touch lazily re-parses the blob; the netlist is whole.
	nl, gi, err := s2.Get(info.Digest)
	if err != nil || nl.NumCells() != 300 || !gi.Loaded {
		t.Fatalf("lazy Get = %v (info %+v)", err, gi)
	}
	if st := s2.Stats(); st.LazyReloads != 1 || st.Netlists != 1 {
		t.Errorf("after lazy load: %+v", st)
	}
	// The child blob reloads too, and the engine builds over it.
	if _, _, err := s2.Engine(child.Netlist.Digest); err != nil {
		t.Fatalf("recovered child engine: %v", err)
	}
}

func TestStoreRecoveryAfterTornAppend(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the 4th Append: ingest is record 1, the delta's netlist
	// record is 2, its lineage 3, so the journaled result is the torn
	// write "in flight" when the process dies.
	tb := &tornBackend{DiskBackend: b, tearAt: 4}
	s, err := Open(0, tb)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(t, 300, 7, true)
	info, err := s.Ingest(data)
	if err != nil {
		t.Fatal(err)
	}
	child, err := s.ApplyDelta(info.Digest, deltaDoc())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResult("find|key", json.RawMessage(`{"candidates":3}`)); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "died" with a half-written frame on disk.

	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(0, b2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.JournalTruncatedBytes == 0 {
		t.Error("torn tail not reported")
	}
	if st.RecoveredNetlists != 2 || st.RecoveredResults != 0 {
		t.Errorf("recovery stats = %+v (want both netlists, torn result lost)", st)
	}
	// Everything before the torn record survived whole.
	if _, _, err := s2.Get(info.Digest); err != nil {
		t.Errorf("parent after torn tail: %v", err)
	}
	if _, ok := s2.Lineage(child.Netlist.Digest); !ok {
		t.Error("lineage lost despite preceding the torn record")
	}
	// And the truncated log accepts new appends cleanly.
	if err := s2.AppendResult("find|key2", json.RawMessage(`{"candidates":4}`)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	b3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Open(0, b3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.JournalTruncatedBytes != 0 || st.RecoveredResults != 1 {
		t.Errorf("third boot stats = %+v", st)
	}
}

func TestEvictionInvisibleUnderDurableBackend(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A budget below one netlist's pins forces eviction on every second
	// load; under a durable backend the evicted digest must keep
	// resolving via lazy blob reload instead of ErrEvicted.
	s, err := Open(1, b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	i1, err := s.Ingest(payload(t, 300, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	i2, err := s.Ingest(payload(t, 300, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction under pin budget 1: %+v", st)
	}
	for _, d := range []string{i1.Digest, i2.Digest} {
		if _, _, err := s.Get(d); err != nil {
			t.Errorf("durable Get(%s) after eviction: %v", d[:8], err)
		}
	}
	if st := s.Stats(); st.LazyReloads == 0 {
		t.Error("expected lazy reloads serving the evicted digests")
	}
}

// faultyJournal wraps the real journal file and injects the failures a
// disk can produce mid-append: a short write (part of the frame lands,
// then an error), a failing fsync, and — for the latch path — a
// failing truncate.
type faultyJournal struct {
	journalFile
	shortWrites   int // next N writes land half their bytes, then fail
	syncFails     int // next N syncs fail
	truncateFails bool
}

var errInjected = errors.New("injected fault")

func (f *faultyJournal) Write(p []byte) (int, error) {
	if f.shortWrites > 0 {
		f.shortWrites--
		n, _ := f.journalFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.journalFile.Write(p)
}

func (f *faultyJournal) Sync() error {
	if f.syncFails > 0 {
		f.syncFails--
		return errInjected
	}
	return f.journalFile.Sync()
}

func (f *faultyJournal) Truncate(size int64) error {
	if f.truncateFails {
		return errInjected
	}
	return f.journalFile.Truncate(size)
}

func resultRec(key string) Record {
	return Record{Kind: RecResult, Key: key, Result: json.RawMessage(`{"candidates":1}`)}
}

// TestDiskAppendFailureRollsBack: a short write or a failed fsync must
// not leave a partial frame mid-log — the append is rolled back, so
// records appended after the failure still replay.
func TestDiskAppendFailureRollsBack(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fj := &faultyJournal{journalFile: b.journal}
	b.journal = fj
	if err := b.Append(resultRec("before")); err != nil {
		t.Fatal(err)
	}
	fj.shortWrites = 1
	if err := b.Append(resultRec("short-write")); !errors.Is(err, errInjected) {
		t.Fatalf("short write append error = %v, want the injected fault", err)
	}
	fj.syncFails = 1
	if err := b.Append(resultRec("sync-fail")); !errors.Is(err, errInjected) {
		t.Fatalf("failed-sync append error = %v, want the injected fault", err)
	}
	if err := b.Append(resultRec("after")); err != nil {
		t.Fatalf("append after a rolled-back failure: %v", err)
	}

	b = reopen(t, b)
	defer b.Close()
	recs, st := replayAll(t, b)
	var keys []string
	for _, r := range recs {
		keys = append(keys, r.Key)
	}
	if len(keys) != 2 || keys[0] != "before" || keys[1] != "after" {
		t.Errorf("replayed keys %q, want [before after]", keys)
	}
	if st.TruncatedBytes != 0 {
		t.Errorf("replay truncated %d bytes: a failed append left a partial frame", st.TruncatedBytes)
	}
}

// TestDiskAppendLatchesWhenRollbackFails: when the rollback truncate
// fails too, the partial frame may still sit in the log, so the backend
// must refuse every later append rather than write good records behind
// it that replay would discard.
func TestDiskAppendLatchesWhenRollbackFails(t *testing.T) {
	b, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	fj := &faultyJournal{journalFile: b.journal, truncateFails: true}
	b.journal = fj
	if err := b.Append(resultRec("before")); err != nil {
		t.Fatal(err)
	}
	fj.shortWrites = 1
	if err := b.Append(resultRec("torn")); err == nil {
		t.Fatal("short write reported success")
	}
	info, err := os.Stat(b.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	fj.truncateFails = false // even a healthy file stays latched
	if err := b.Append(resultRec("after")); err == nil {
		t.Fatal("append succeeded on a latched backend")
	}
	again, err := os.Stat(b.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if again.Size() != info.Size() {
		t.Errorf("latched backend still wrote to the journal (%d -> %d bytes)", info.Size(), again.Size())
	}
}

// TestDiskPutBlobSyncsDirectory: PutBlob syncs blobs/ after the rename
// has put the blob in place, a failed directory sync is returned by
// PutBlob and by the Ingest or ApplyDelta that called it, and a retry
// over the blob the failed attempt left behind still ends synced — so
// the journal never holds a record whose blob a crash could drop.
func TestDiskPutBlobSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The seam records, per sync, whether the expected blob was already
	// in place, and fails the next failNext syncs.
	var want string
	var syncs, blobPresent, failNext int
	b.syncDir = func(d string) error {
		syncs++
		if d != filepath.Join(dir, "blobs") {
			t.Errorf("synced %s, want the blobs directory", d)
		}
		if _, err := os.Stat(filepath.Join(d, want)); err == nil {
			blobPresent++
		}
		if failNext > 0 {
			failNext--
			return errInjected
		}
		return fsyncDir(d)
	}
	// put runs one PutBlob-backed call and checks it synced exactly
	// once, after the blob was in place.
	put := func(digest string, call func() error) error {
		t.Helper()
		want = digest
		s0, p0 := syncs, blobPresent
		err := call()
		if syncs != s0+1 || blobPresent != p0+1 {
			t.Fatalf("%d directory syncs, %d with the blob in place; want one, after the rename",
				syncs-s0, blobPresent-p0)
		}
		return err
	}

	if err := put("d1", func() error { return b.PutBlob("d1", []byte("payload")) }); err != nil {
		t.Fatal(err)
	}
	failNext = 1
	if err := put("d2", func() error { return b.PutBlob("d2", []byte("payload")) }); !errors.Is(err, errInjected) {
		t.Fatalf("PutBlob with a failing directory sync = %v, want the injected fault", err)
	}
	if err := put("d2", func() error { return b.PutBlob("d2", []byte("payload")) }); err != nil {
		t.Fatalf("PutBlob retry over the left-behind blob: %v", err)
	}

	s, err := Open(0, b)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(t, 300, 7, true)
	digest := Digest(data)
	failNext = 1
	if err := put(digest, func() error { _, err := s.Ingest(data); return err }); !errors.Is(err, errInjected) {
		t.Fatalf("Ingest with a failing directory sync = %v, want the injected fault", err)
	}
	if _, ok := s.Info(digest); ok {
		t.Fatal("a failed ingest registered its digest")
	}
	if err := put(digest, func() error { _, err := s.Ingest(data); return err }); err != nil {
		t.Fatalf("Ingest retry: %v", err)
	}

	failNext = 1
	if _, err := s.ApplyDelta(digest, deltaDoc()); !errors.Is(err, errInjected) {
		t.Fatalf("ApplyDelta with a failing directory sync = %v, want the injected fault", err)
	}
	var child api.DeltaResult
	s0 := syncs
	if child, err = s.ApplyDelta(digest, deltaDoc()); err != nil {
		t.Fatalf("ApplyDelta retry: %v", err)
	}
	if syncs != s0+1 {
		t.Fatalf("ApplyDelta retry made %d directory syncs, want 1", syncs-s0)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Both retried digests were journaled behind their synced blobs.
	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(0, b2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.RecoveredNetlists != 2 {
		t.Fatalf("recovered %d netlists, want the ingested parent and the delta child", st.RecoveredNetlists)
	}
	if _, _, err := s2.Get(child.Netlist.Digest); err != nil {
		t.Fatalf("recovered child: %v", err)
	}
}
