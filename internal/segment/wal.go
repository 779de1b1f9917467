package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Write-ahead log over an FS directory. The WAL is a sequence of files
// wal-<seq>.log, each opened by a header record (magic, cube fingerprint,
// the generation the file starts at, its sequence number) and closed —
// when sealed — by a seal record. A batch record is one time point: its
// generation, then one little-endian float64 per base series, in the order
// the fingerprint pins. A sealed file is the segment: nothing re-encodes
// it, and it stays until a checkpoint's snapshot covers it (RemoveBelow).
// Only the final, unsealed file may end in a torn record (the signature of
// a crash mid-append); a torn or corrupt record in a sealed file is
// reported as corruption, because sealing synced the file before anything
// was allowed to follow it.
//
// Appends are group commits: the engine calls AppendColumn once per
// completed insert batch, before it applies the batch in memory, and the
// configured SyncPolicy decides whether the append fsyncs before
// returning. Any append or sync failure poisons the WAL permanently
// (writes after a partial record would corrupt the log), surfacing the
// error on every subsequent call — the engine refuses the batch and keeps
// its pending state intact, so a healthy WAL can retry it.

// SyncPolicy decides when Append fsyncs: 0 after every record (SyncAlways,
// full group-commit durability — the zero value, so an unset knob errs
// toward durability), negative never (SyncNever, the OS page cache
// decides), n >= 1 after every n-th record.
type SyncPolicy int

const (
	// SyncAlways fsyncs every appended record before Append returns.
	SyncAlways SyncPolicy = 0
	// SyncNever leaves flushing to the OS.
	SyncNever SyncPolicy = -1
)

// SyncEvery returns the policy fsyncing after every n-th append.
func SyncEvery(n int) SyncPolicy {
	if n < 1 {
		return SyncAlways
	}
	return SyncPolicy(n)
}

// ParseSyncPolicy parses a -fsync flag value: "always", "never", or a
// positive integer n meaning fsync every n appends.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf(`segment: bad fsync policy %q (want "always", "never" or a positive count)`, s)
	}
	return SyncEvery(n), nil
}

// String renders the policy in ParseSyncPolicy's vocabulary.
func (p SyncPolicy) String() string {
	switch {
	case p < 0:
		return "never"
	case p == SyncAlways:
		return "always"
	}
	return strconv.Itoa(int(p))
}

// Entry is one base-series value of a batch, for Append.
type Entry struct {
	ID    int64
	Value float64
}

// ReplayFunc receives each batch record during recovery, in log order: its
// generation and its column. The column is the WAL's, reused for every
// record, and must not be retained. Returning an error aborts the replay.
type ReplayFunc func(gen uint64, column []float64) error

// ReplayInfo reports what recovery found.
type ReplayInfo struct {
	// Batches is the number of batch records replayed.
	Batches int
	// TornBytes is the size of the discarded torn tail, 0 for a clean log.
	TornBytes int64
	// Files is the number of WAL files present.
	Files int
}

// walMagic opens every WAL file's header record. F2WAL001 files carried
// (ID, value) pairs per batch; they are refused by name.
var walMagic = [8]byte{'F', '2', 'W', 'A', 'L', '0', '0', '2'}

// ErrWALCorrupt wraps hard log corruption: damage in a sealed region that
// recovery cannot attribute to a torn final append.
var ErrWALCorrupt = errors.New("segment: WAL corrupt")

type walFile struct {
	seq      uint64
	startGen uint64
	sealed   bool
}

// WAL is an open write-ahead log positioned for appending.
type WAL struct {
	mu          sync.Mutex
	fs          FS
	dir         string
	fingerprint uint64
	policy      SyncPolicy

	f         File // nil until the first append creates/reopens a file
	files     []walFile
	nextSeq   uint64
	sinceSync int
	failed    error
	buf       []byte    // framed-record scratch
	column    []float64 // replay's decoded column; Append's gathered values
	width     int       // values per batch record, -1 until the log has one
	batches   int       // batch records in the active file
	fileBytes int64     // bytes of the active file

	appends, syncs, appendedBytes int64
}

func walFileName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

func parseWALSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return seq, err == nil
}

// OpenWAL replays the log under dir (generation-checked, CRC-framed) into
// fn and returns a WAL positioned to append after the last durable record.
// Every batch record is decoded into one column, so a replay allocates the
// same for 8 records as for 64. A torn tail on the final file is truncated
// away; corruption anywhere else returns an error wrapping ErrWALCorrupt.
// The fingerprint ties the log to one cube: a mismatching header refuses to
// replay rather than feeding another database's batches into the engine,
// and a file of another format version is refused naming its magic.
func OpenWAL(fs FS, dir string, fingerprint uint64, policy SyncPolicy, fn ReplayFunc) (*WAL, ReplayInfo, error) {
	w := &WAL{fs: fs, dir: dir, fingerprint: fingerprint, policy: policy, nextSeq: 1, width: -1}
	var info ReplayInfo

	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, info, err
	}
	for _, name := range names {
		if seq, ok := parseWALSeq(name); ok {
			w.files = append(w.files, walFile{seq: seq})
		}
	}
	sort.Slice(w.files, func(i, j int) bool { return w.files[i].seq < w.files[j].seq })
	info.Files = len(w.files)

	var lastGen uint64
	haveGen := false
	for i := range w.files {
		wf := &w.files[i]
		last := i == len(w.files)-1
		name := path.Join(dir, walFileName(wf.seq))
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, info, err
		}
		off := int64(0)
		sawHeader := false
		tornAt := int64(-1)
		batches := 0
	records:
		for off < int64(len(data)) {
			typ, payload, next, err := ReadRecord(data, off)
			if err != nil {
				if last {
					tornAt = off // torn or trashed tail of the active file: end of log
					break records
				}
				return nil, info, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, name, err)
			}
			switch typ {
			case RecHeader:
				if sawHeader {
					return nil, info, fmt.Errorf("%w: %s: duplicate header record", ErrWALCorrupt, name)
				}
				if len(payload) >= len(walMagic) && string(payload[:len(walMagic)]) != string(walMagic[:]) {
					return nil, info, fmt.Errorf("segment: %s: format %q is not this version's %q", name, payload[:len(walMagic)], walMagic[:])
				}
				startGen, err := decodeWALHeader(payload, fingerprint, wf.seq)
				if err != nil {
					return nil, info, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, name, err)
				}
				wf.startGen = startGen
				sawHeader = true
			case recBatch:
				if !sawHeader {
					return nil, info, fmt.Errorf("%w: %s: batch record before header", ErrWALCorrupt, name)
				}
				gen, err := w.decodeBatch(payload)
				if err != nil {
					return nil, info, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, name, err)
				}
				if haveGen && gen != lastGen+1 {
					return nil, info, fmt.Errorf("%w: %s: generation gap (batch %d follows %d)", ErrWALCorrupt, name, gen, lastGen)
				}
				lastGen, haveGen = gen, true
				if fn != nil {
					if err := fn(gen, w.column); err != nil {
						return nil, info, err
					}
				}
				info.Batches++
				batches++
			case recSeal:
				if !sawHeader {
					return nil, info, fmt.Errorf("%w: %s: seal record before header", ErrWALCorrupt, name)
				}
				if next != int64(len(data)) {
					return nil, info, fmt.Errorf("%w: %s: %d bytes after seal record", ErrWALCorrupt, name, int64(len(data))-next)
				}
				wf.sealed = true
			default:
				return nil, info, fmt.Errorf("%w: %s: unknown record type %d", ErrWALCorrupt, name, typ)
			}
			off = next
		}
		if !last && !wf.sealed {
			return nil, info, fmt.Errorf("%w: %s: unsealed file is not the final one", ErrWALCorrupt, name)
		}
		if last {
			w.nextSeq = wf.seq + 1
			switch {
			case !sawHeader:
				// Even the header is torn (or the file is empty — created
				// but never written): nothing in the file is usable, and
				// keeping it as the active file would put batch records in
				// front of a header. Remove it; its sequence number is dead.
				info.TornBytes += int64(len(data))
				if err := fs.Remove(name); err != nil {
					return nil, info, err
				}
				if err := fs.SyncDir(dir); err != nil {
					return nil, info, err
				}
				w.files = w.files[:i]
			case tornAt >= 0:
				info.TornBytes += int64(len(data)) - tornAt
				if err := w.reopenTruncated(name, tornAt); err != nil {
					return nil, info, err
				}
			case !wf.sealed:
				if err := w.reopenTruncated(name, int64(len(data))); err != nil {
					return nil, info, err
				}
			}
			w.batches = batches
			// A sealed final file stays closed; the next append starts a
			// new one.
		}
	}
	return w, info, nil
}

// reopenTruncated cuts the active file to the last whole record and opens
// it for appending, syncing so the truncation is durable before any new
// record lands after it.
func (w *WAL) reopenTruncated(name string, size int64) error {
	if err := w.fs.Truncate(name, size); err != nil {
		return err
	}
	f, err := w.fs.Append(name)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f, w.fileBytes = f, size
	return nil
}

// decodeWALHeader validates a header record payload.
func decodeWALHeader(payload []byte, fingerprint, seq uint64) (startGen uint64, err error) {
	if len(payload) != 8+8+8+8 {
		return 0, fmt.Errorf("header record has %d bytes", len(payload))
	}
	if fp := binary.LittleEndian.Uint64(payload[8:16]); fp != fingerprint {
		return 0, fmt.Errorf("fingerprint %016x does not match the database (%016x)", fp, fingerprint)
	}
	if s := binary.LittleEndian.Uint64(payload[24:32]); s != seq {
		return 0, fmt.Errorf("header claims sequence %d, file name says %d", s, seq)
	}
	return binary.LittleEndian.Uint64(payload[16:24]), nil
}

// appendWALHeader appends a framed header record to buf.
func appendWALHeader(buf []byte, fingerprint, startGen, seq uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, RecHeader)
	buf = append(buf, walMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, startGen)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	FrameRecord(buf, start)
	return buf
}

// decodeBatch parses a batch record payload — a u64 generation and the
// column — into w.column. The log's first batch record sets the width;
// every later one must have it.
func (w *WAL) decodeBatch(payload []byte) (gen uint64, err error) {
	if len(payload) < 8 || len(payload)%8 != 0 {
		return 0, fmt.Errorf("batch record of %d bytes is not a generation and a column", len(payload))
	}
	n := len(payload)/8 - 1
	if w.width < 0 {
		w.width, w.column = n, make([]float64, n)
	}
	if n != w.width {
		return 0, fmt.Errorf("a column of %d values in a log of %d-value columns", n, w.width)
	}
	for i := range w.column {
		w.column[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+8*i:]))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendColumn logs one committed batch — one value per base series, in
// the order the fingerprint pins — and applies the sync policy. On return
// under SyncAlways the batch is durable; the caller may then apply it in
// memory. A column of another width than the log's is refused before
// anything is written; any write failure poisons the WAL: the record
// stream must not continue after a partial write.
func (w *WAL) AppendColumn(gen uint64, column []float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(gen, column)
}

// Append logs a batch given as entries in ascending ID order: a wrapper
// over AppendColumn for callers that hold (ID, value) pairs. The IDs are
// not stored; their order is the column's.
func (w *WAL) Append(gen uint64, entries []Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.column = w.column[:0]
	for i, e := range entries {
		if i > 0 && e.ID <= entries[i-1].ID {
			return fmt.Errorf("segment: batch entries out of order (%d after %d)", e.ID, entries[i-1].ID)
		}
		w.column = append(w.column, e.Value)
	}
	return w.appendLocked(gen, w.column)
}

func (w *WAL) appendLocked(gen uint64, column []float64) error {
	if w.failed != nil {
		return w.failed
	}
	if w.width >= 0 && len(column) != w.width {
		return fmt.Errorf("segment: a column of %d values for a log of %d-value columns", len(column), w.width)
	}
	if 8*uint64(len(column)+1) > maxRecordSize {
		return fmt.Errorf("segment: a column of %d values exceeds the record bound", len(column))
	}
	if w.f == nil {
		if err := w.startFile(gen); err != nil {
			return w.poison(err)
		}
	}
	w.buf = append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, recBatch)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, gen)
	for _, v := range column {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
	FrameRecord(w.buf, 0)
	if err := w.write(w.buf); err != nil {
		return w.poison(err)
	}
	w.width = len(column)
	w.appends++
	w.batches++
	if w.policy >= 0 {
		w.sinceSync++
		if w.sinceSync >= max(int(w.policy), 1) {
			if err := w.f.Sync(); err != nil {
				return w.poison(err)
			}
			w.syncs++
			w.sinceSync = 0
		}
	}
	return nil
}

// write writes b fully to the active file or fails (a short write is a
// failure: the frame is torn on disk and nothing may be appended after it).
func (w *WAL) write(b []byte) error {
	n, err := w.f.Write(b)
	if err == nil && n < len(b) {
		err = fmt.Errorf("segment: short write (%d of %d bytes)", n, len(b))
	}
	if err != nil {
		return err
	}
	w.fileBytes += int64(n)
	w.appendedBytes += int64(n)
	return nil
}

// poison records a permanent failure.
func (w *WAL) poison(err error) error {
	w.failed = fmt.Errorf("segment: WAL failed permanently: %w", err)
	return w.failed
}

// startFile creates the next WAL file with a durable header.
func (w *WAL) startFile(startGen uint64) error {
	seq := w.nextSeq
	name := path.Join(w.dir, walFileName(seq))
	f, err := w.fs.Create(name)
	if err != nil {
		return err
	}
	w.f, w.fileBytes = f, 0
	err = w.write(appendWALHeader(w.buf[:0], w.fingerprint, startGen, seq))
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = w.fs.SyncDir(w.dir)
	}
	if err != nil {
		f.Close()
		w.f = nil
		return err
	}
	w.batches = 0
	w.nextSeq = seq + 1
	w.files = append(w.files, walFile{seq: seq, startGen: startGen})
	return nil
}

// Rotate seals the active file (seal record + sync) and starts the next
// one at nextGen, returning the sealed file's size (0 when no file was
// open). The sealed file is the segment: it is never rewritten, and only
// RemoveBelow deletes it.
func (w *WAL) Rotate(nextGen uint64) (sealed int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.f != nil {
		if err := w.write(AppendRecord(w.buf[:0], recSeal, nil)); err != nil {
			return 0, w.poison(err)
		}
		if err := w.f.Sync(); err != nil {
			return 0, w.poison(err)
		}
		w.syncs++
		w.sinceSync = 0
		if err := w.f.Close(); err != nil {
			return 0, w.poison(err)
		}
		sealed = w.fileBytes
		w.f = nil
		w.files[len(w.files)-1].sealed = true
	}
	if err := w.startFile(nextGen); err != nil {
		return sealed, w.poison(err)
	}
	return sealed, nil
}

// ActiveBatches reports how many batch records the active file holds.
func (w *WAL) ActiveBatches() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0
	}
	return w.batches
}

// RemoveBelow deletes sealed WAL files whose entire generation range lies
// below gen — call it once a snapshot covering gen is durable. A Remove that
// fails stops it with the files not yet removed still listed, so a later
// call resumes where it stopped.
func (w *WAL) RemoveBelow(gen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	kept := w.files[:0]
	removed := false
	for i := range w.files {
		wf := w.files[i]
		// The file's range ends where the next file starts; the final file
		// (or an unsealed one) is never removable.
		if wf.sealed && i+1 < len(w.files) && w.files[i+1].startGen <= gen {
			name := path.Join(w.dir, walFileName(wf.seq))
			if err := w.fs.Remove(name); err != nil {
				w.files = append(kept, w.files[i:]...)
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, wf)
	}
	w.files = kept
	if removed {
		return w.fs.SyncDir(w.dir)
	}
	return nil
}

// Close syncs and closes the active file. The WAL is unusable afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.syncs++
	}
	w.f = nil
	w.failed = errors.New("segment: WAL closed")
	return err
}

// Stats reports cumulative append/sync counters for the engine's metrics
// mirror.
func (w *WAL) Stats() (appends, syncs, bytes int64, files int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs, w.appendedBytes, len(w.files)
}
