package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "joblog.jsonl")
}

func TestLogRoundTrip(t *testing.T) {
	path := logPath(t)
	want := []Record{
		{T: "submit", ID: "job-1", Seq: 1, Kernel: "reduce", N: 4096, Tenant: "a", DeadlineMS: 250},
		{T: "cancel", ID: "job-1"},
		{T: "complete", ID: "job-1", State: "canceled", Reason: "canceled"},
		{T: "submit", ID: "job-2", Seq: 2, Kernel: "sort", N: 1 << 16, Tenant: "b"},
		{T: "complete", ID: "job-2", State: "done", Checksum: 42.5},
	}
	l, recs, err := OpenLog(path, 2, time.Millisecond)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestLogKillKeepsAppendedRecords pins the write-through property: records
// appended but not yet fsynced (batch not reached, timer not fired)
// survive Kill, because each Append issued its write(2) synchronously.
func TestLogKillKeepsAppendedRecords(t *testing.T) {
	path := logPath(t)
	l, _, err := OpenLog(path, 1000, time.Hour) // batch never reached
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{T: "submit", ID: "job-1", Seq: int64(i + 1)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Kill()
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records after Kill, want 5", len(recs))
	}
	if err := l.Append(Record{T: "submit", ID: "job-2"}); err != os.ErrClosed {
		t.Fatalf("Append after Kill: err=%v, want os.ErrClosed", err)
	}
}

// TestLogTornTailTolerated simulates a partial final write: the torn line
// is dropped on read, and OpenLog truncates it away so the next append
// starts on a clean record boundary instead of gluing onto the fragment.
func TestLogTornTailTolerated(t *testing.T) {
	path := logPath(t)
	good := Record{T: "submit", ID: "job-1", Seq: 1, Kernel: "reduce", N: 64}
	b, _ := json.Marshal(good)
	data := append(append([]byte{}, b...), '\n')
	data = append(data, []byte(`{"t":"complete","id":"job-1","sta`)...) // torn mid-record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog with torn tail: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("got %+v, want just the intact record", recs)
	}

	l, recs, err := OpenLog(path, 1, 0)
	if err != nil {
		t.Fatalf("OpenLog with torn tail: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("OpenLog returned %d records, want 1", len(recs))
	}
	if err := l.Append(Record{T: "complete", ID: "job-1", State: "done", Checksum: 7}); err != nil {
		t.Fatalf("Append after repair: %v", err)
	}
	l.Close()
	recs, err = ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog after repair+append: %v", err)
	}
	if len(recs) != 2 || recs[1].T != "complete" || recs[1].Checksum != 7 {
		t.Fatalf("after repair got %+v, want intact record + new complete", recs)
	}
}

// TestLogMidFileCorruptionRejected: tolerance is for the tail only —
// garbage with valid records after it means the file is untrustworthy.
func TestLogMidFileCorruptionRejected(t *testing.T) {
	path := logPath(t)
	b, _ := json.Marshal(Record{T: "submit", ID: "job-1", Seq: 1})
	data := append(append([]byte{}, b...), '\n')
	data = append(data, []byte("not json at all\n")...)
	data = append(data, b...)
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := ReadLog(path); err == nil {
		t.Fatal("ReadLog accepted mid-file corruption")
	}
	if _, _, err := OpenLog(path, 0, 0); err == nil {
		t.Fatal("OpenLog accepted mid-file corruption")
	}
}

// TestLogBatchedFsyncStillSyncs: the interval timer flushes a partial
// batch, so a quiet log does not hold records out of durability forever.
func TestLogBatchedFsyncStillSyncs(t *testing.T) {
	path := logPath(t)
	l, _, err := OpenLog(path, 1000, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	if err := l.Append(Record{T: "submit", ID: "job-1", Seq: 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		l.mu.Lock()
		pending := l.pending
		l.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval timer never flushed the pending batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLogSyncIsABarrier: Sync flushes the pending batch on demand, so a
// record is readable by a second OpenLog on the same path while the first
// log is still open; Sync on a closed log reports os.ErrClosed.
func TestLogSyncIsABarrier(t *testing.T) {
	path := logPath(t)
	l, _, err := OpenLog(path, 1000, time.Hour) // neither batch nor timer flushes
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	want := Record{T: "submit", ID: "job-1", Seq: 1, Kernel: "reduce", N: 4096, Tenant: "a"}
	if err := l.Append(want); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if l.pending != 0 {
		t.Fatalf("pending = %d after Sync, want 0", l.pending)
	}
	l2, recs, err := OpenLog(path, 0, 0)
	if err != nil {
		t.Fatalf("second OpenLog: %v", err)
	}
	defer l2.Close()
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], want) {
		t.Fatalf("second OpenLog read %+v, want [%+v]", recs, want)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Sync(); err != os.ErrClosed {
		t.Fatalf("Sync after Close: err=%v, want os.ErrClosed", err)
	}
}

// FuzzReadLog drives the job-log decoder with arbitrary bytes. It must
// never panic, and whenever it accepts the input: the valid prefix lies
// inside the data, re-reading exactly that prefix yields the same records,
// and a record appended to the prefix reads back after them — the
// truncate-then-append sequence OpenLog relies on after a torn write.
func FuzzReadLog(f *testing.F) {
	three := `{"t":"submit","id":"job-1","seq":1,"kernel":"reduce","n":4096,"tenant":"a"}` + "\n" +
		`{"t":"cancel","id":"job-1"}` + "\n" +
		`{"t":"complete","id":"job-1","state":"done","checksum":42.5,"phases":{"admitted":7}}` + "\n"
	f.Add([]byte(three))
	f.Add([]byte(three + `{"t":"submit","id":"jo`))
	f.Add([]byte(`{"t":"submit","id":"job-1"}` + "\n" + `{"t":"sub` + "\n" + `{"t":"cancel","id":"job-1"}` + "\n"))
	f.Add([]byte("\n  \n" + `{"t":"cancel","id":"job-2"}` + "\n\n\t\n"))
	f.Add([]byte(`{"t":"submit","id":"job-3"}` + "\r\n" + `{"t":"cancel","id":"job-3"}` + "\r\n"))
	fresh := Record{T: "submit", ID: "fresh", Seq: 9, Kernel: "sort", N: 64, Tenant: "f"}
	line, err := json.Marshal(fresh)
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := decodeLog(data)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		prefix := data[:valid:valid]
		again, v2, err := decodeLog(prefix)
		if err != nil || v2 != valid || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-reading the valid prefix: %d records, valid %d, err %v; want %d records, valid %d",
				len(again), v2, err, len(recs), valid)
		}
		grown, _, err := decodeLog(append(prefix, line...))
		if err != nil {
			t.Fatalf("append after the valid prefix: %v", err)
		}
		if want := append(recs[:len(recs):len(recs)], fresh); !reflect.DeepEqual(grown, want) {
			t.Fatalf("append after the valid prefix read %d records, want %d", len(grown), len(want))
		}
	})
}
