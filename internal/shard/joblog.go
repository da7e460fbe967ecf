package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pstlbench/internal/obs"
)

// Record is one entry of the append-only job log. Three kinds:
//
//   - "submit": an accepted job (spec fields set) — written after the
//     shard admitted it, so every acknowledged job is in the log.
//   - "cancel": a client cancellation was accepted for a live job. Written
//     before the shard acts, so a crash between the cancel ack and the
//     completion record still replays as canceled, never as runnable.
//   - "complete": the job reached a terminal state (State "done" with its
//     Checksum, or "canceled" with its Reason). A job with a durable
//     complete record is never resubmitted by replay — the exactly-once
//     guard. Shutdown cancellations are deliberately NOT recorded: a
//     graceful stop leaves its backlog replayable, same as a crash.
type Record struct {
	T          string  `json:"t"`
	ID         string  `json:"id"`
	Seq        int64   `json:"seq,omitempty"`
	Kernel     string  `json:"kernel,omitempty"`
	N          int     `json:"n,omitempty"`
	Tenant     string  `json:"tenant,omitempty"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
	State      string  `json:"state,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	Checksum   float64 `json:"checksum,omitempty"`
	// Phases carries the job's lifecycle-span stamps known at append time
	// (obs.Phase name -> UnixNano). Replay seeds the new incarnation's span
	// from it, so a replayed job keeps its pre-crash history — above all
	// the original admission time.
	Phases map[string]int64 `json:"phases,omitempty"`
}

// Log is the append-only JSON-lines job log with group-committed fsync.
// Every Append issues its write(2) synchronously, so a SIGKILLed process
// loses nothing it acknowledged — the kernel already holds the bytes.
// fsync, the power-loss barrier, is batched: one sync per every records or
// per interval since the first unsynced record, whichever comes first, so
// a submission burst shares one disk flush instead of paying one each.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	pending  int // records written since the last fsync
	every    int
	interval time.Duration
	timer    *time.Timer
	closed   bool

	// Instrumentation (see Instrument); nil histograms are disabled no-ops.
	fsyncH  *obs.Histogram
	commitH *obs.Histogram
}

// OpenLog opens (creating if absent) the log at path for appending and
// returns the records already present, crash tolerance included: a torn
// final line — the signature of a partial physical write — is dropped and
// truncated away so subsequent appends start on a clean record boundary,
// while corruption anywhere else is an error. every and interval bound
// the fsync batch (<= 0 selects 32 records / 5ms).
func OpenLog(path string, every int, interval time.Duration) (*Log, []Record, error) {
	recs, valid, err := readLogValid(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if st, err := f.Stat(); err == nil && st.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if every <= 0 {
		every = 32
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	return &Log{f: f, every: every, interval: interval}, recs, nil
}

// ReadLog parses the records in the log at path. A torn final line is
// dropped; a missing file reads as empty via os.IsNotExist on the error.
func ReadLog(path string) ([]Record, error) {
	recs, _, err := readLogValid(path)
	return recs, err
}

// readLogValid parses the records of the log at path and returns the byte
// offset of the last complete record — see decodeLog.
func readLogValid(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	recs, valid, err := decodeLog(data)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: corrupt job log %s %w", path, err)
	}
	return recs, valid, nil
}

// decodeLog parses log bytes into records and returns the byte offset of
// the last complete record — the length OpenLog truncates a torn tail back
// to. A record is complete only when newline-terminated and parseable;
// each Append writes record+newline in one write(2), so an unterminated or
// unparseable tail can only come from a partial physical write (power
// loss), and dropping it re-runs at most that one in-flight job.
func decodeLog(data []byte) ([]Record, int64, error) {
	var recs []Record
	var valid int64
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		var line []byte
		next := len(data)
		if nl < 0 {
			line = data[off:]
		} else {
			line = data[off : off+nl]
			next = off + nl + 1
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			valid = int64(next)
			off = next
			continue
		}
		var rec Record
		if nl < 0 || json.Unmarshal(trimmed, &rec) != nil {
			// Torn tail: tolerated only when nothing valid follows.
			if nl >= 0 && bytes.IndexFunc(data[next:], notSpace) >= 0 {
				return nil, 0, fmt.Errorf("at byte %d", off)
			}
			break
		}
		recs = append(recs, rec)
		valid = int64(next)
		off = next
	}
	return recs, valid, nil
}

func notSpace(r rune) bool {
	return r != ' ' && r != '\t' && r != '\n' && r != '\r'
}

// Append writes one record through to the kernel and schedules its fsync.
// It returns os.ErrClosed after Close or Kill.
func (l *Log) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	l.pending++
	if l.pending >= l.every {
		return l.syncLocked()
	}
	if l.timer == nil {
		l.timer = time.AfterFunc(l.interval, l.flushTimer)
	}
	return nil
}

func (l *Log) flushTimer() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.timer = nil
	if !l.closed && l.pending > 0 {
		l.syncLocked()
	}
}

// Instrument points the log at a fsync-latency histogram (seconds per
// fsync barrier) and a group-commit-size histogram (records per barrier),
// so fsync stalls stop masquerading as scheduler saturation. Either may be
// nil; safe to call before traffic.
func (l *Log) Instrument(fsync, commit *obs.Histogram) {
	l.mu.Lock()
	l.fsyncH, l.commitH = fsync, commit
	l.mu.Unlock()
}

func (l *Log) syncLocked() error {
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	if l.pending > 0 {
		l.commitH.Observe(float64(l.pending))
	}
	l.pending = 0
	start := time.Now()
	err := l.f.Sync()
	l.fsyncH.Observe(time.Since(start).Seconds())
	return err
}

// Sync forces any pending records to disk now.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	return l.syncLocked()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.syncLocked()
	l.closed = true
	return l.f.Close()
}

// Kill closes the log abruptly, without the final fsync — the crash path
// the kill-and-replay tests exercise. Records already appended survive (a
// dead process cannot revoke a completed write(2)); anything a caller was
// about to append is lost, exactly as a SIGKILL would lose it.
func (l *Log) Kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.closed = true
	l.f.Close()
}
