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
// the generation the file starts at) and closed — when rotated — by a seal
// record. Only the final, unsealed file may end in a torn record (the
// signature of a crash mid-append); a torn or corrupt record in a sealed
// file is reported as corruption, because sealing synced the file before
// anything was allowed to reference it.
//
// Appends are group commits: the engine calls Append once per completed
// insert batch, before it applies the batch in memory, and the configured
// SyncPolicy decides whether the append fsyncs before returning. Any
// append or sync failure poisons the WAL permanently (writes after a
// partial record would corrupt the log), surfacing the error on every
// subsequent call — the engine refuses the batch and keeps its pending
// state intact, so a healthy WAL can retry it.

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

// Entry is one base-series value of a committed batch.
type Entry struct {
	ID    int64
	Value float64
}

// ReplayFunc receives each committed batch during recovery, in log order.
// Returning an error aborts the replay.
type ReplayFunc func(gen uint64, entries []Entry) error

// ReplayInfo reports what recovery found.
type ReplayInfo struct {
	// Batches is the number of batch records replayed.
	Batches int
	// TornBytes is the size of the discarded torn tail, 0 for a clean log.
	TornBytes int64
	// Files is the number of WAL files present.
	Files int
}

// walMagic opens every WAL file's header record.
var walMagic = [8]byte{'F', '2', 'W', 'A', 'L', '0', '0', '1'}

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

	f         File   // nil until the first append creates/reopens a file
	active    string // name of the file f writes to
	files     []walFile
	nextSeq   uint64
	sinceSync int
	failed    error
	buf       []byte // framed-record scratch
	payload   []byte // batch-payload scratch

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
// A torn tail on the final file is truncated away; corruption anywhere
// else returns an error wrapping ErrWALCorrupt. The fingerprint ties the
// log to one cube: a mismatching header refuses to replay rather than
// feeding another database's batches into the engine.
func OpenWAL(fs FS, dir string, fingerprint uint64, policy SyncPolicy, fn ReplayFunc) (*WAL, ReplayInfo, error) {
	w := &WAL{fs: fs, dir: dir, fingerprint: fingerprint, policy: policy, nextSeq: 1}
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
	records:
		for off < int64(len(data)) {
			typ, payload, next, err := readRecord(data, off)
			if err != nil {
				if last {
					tornAt = off // torn or trashed tail of the active file: end of log
					break records
				}
				return nil, info, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, name, err)
			}
			switch typ {
			case recHeader:
				if sawHeader {
					return nil, info, fmt.Errorf("%w: %s: duplicate header record", ErrWALCorrupt, name)
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
				gen, entries, err := decodeBatch(payload)
				if err != nil {
					return nil, info, fmt.Errorf("%w: %s: %v", ErrWALCorrupt, name, err)
				}
				if haveGen && gen != lastGen+1 {
					return nil, info, fmt.Errorf("%w: %s: generation gap (batch %d follows %d)", ErrWALCorrupt, name, gen, lastGen)
				}
				lastGen, haveGen = gen, true
				if fn != nil {
					if err := fn(gen, entries); err != nil {
						return nil, info, err
					}
				}
				info.Batches++
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
			// A sealed final file stays closed; the next append rotates.
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
	w.f, w.active = f, name
	return nil
}

// decodeWALHeader validates a header record payload.
func decodeWALHeader(payload []byte, fingerprint, seq uint64) (startGen uint64, err error) {
	if len(payload) != 8+8+8+8 {
		return 0, fmt.Errorf("header record has %d bytes", len(payload))
	}
	if string(payload[:8]) != string(walMagic[:]) {
		return 0, fmt.Errorf("bad WAL magic")
	}
	if fp := binary.LittleEndian.Uint64(payload[8:16]); fp != fingerprint {
		return 0, fmt.Errorf("fingerprint %016x does not match the database (%016x)", fp, fingerprint)
	}
	if s := binary.LittleEndian.Uint64(payload[24:32]); s != seq {
		return 0, fmt.Errorf("header claims sequence %d, file name says %d", s, seq)
	}
	return binary.LittleEndian.Uint64(payload[16:24]), nil
}

func encodeWALHeader(fingerprint, startGen, seq uint64) []byte {
	p := make([]byte, 0, 32)
	p = append(p, walMagic[:]...)
	p = binary.LittleEndian.AppendUint64(p, fingerprint)
	p = binary.LittleEndian.AppendUint64(p, startGen)
	p = binary.LittleEndian.AppendUint64(p, seq)
	return p
}

// appendUvarint appends a protobuf-style unsigned varint.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// decoder walks a batch payload with bounds-checked reads; all errors
// funnel through one corruption message carrying the position.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("segment: corrupt at byte %d: %s", d.off, fmt.Sprintf(format, args...))
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.errf("bad uvarint")
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, d.errf("%d bytes wanted, %d remain", n, len(d.data)-d.off)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// encodeBatch renders a batch record payload: the generation, the entry
// count, then ascending-ID entries as (uvarint ID delta, fixed64 value).
func encodeBatch(buf []byte, gen uint64, entries []Entry) []byte {
	buf = appendUvarint(buf, gen)
	buf = appendUvarint(buf, uint64(len(entries)))
	prev := int64(0)
	for _, e := range entries {
		buf = appendUvarint(buf, uint64(e.ID-prev))
		prev = e.ID
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(e.Value))
		buf = append(buf, v[:]...)
	}
	return buf
}

// decodeBatch parses a batch record payload.
func decodeBatch(payload []byte) (gen uint64, entries []Entry, err error) {
	d := &decoder{data: payload}
	gen, err = d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	// Each entry costs at least 9 bytes (1-byte delta + 8-byte value).
	if n > uint64(len(payload))/9 {
		return 0, nil, fmt.Errorf("batch claims %d entries in %d bytes", n, len(payload))
	}
	entries = make([]Entry, n)
	id := int64(0)
	for i := range entries {
		delta, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		id += int64(delta)
		if i > 0 && delta == 0 {
			return 0, nil, fmt.Errorf("batch entry %d repeats ID %d", i, id)
		}
		vb, err := d.bytes(8)
		if err != nil {
			return 0, nil, err
		}
		entries[i] = Entry{ID: id, Value: math.Float64frombits(binary.LittleEndian.Uint64(vb))}
	}
	if d.off != len(payload) {
		return 0, nil, fmt.Errorf("%d stray bytes after batch", len(payload)-d.off)
	}
	return gen, entries, nil
}

// Append logs one committed batch (entries must be in ascending ID order)
// and applies the sync policy. On return under SyncAlways the batch is
// durable; the caller may then apply it in memory. Any failure poisons the
// WAL: the record stream must not continue after a partial write.
func (w *WAL) Append(gen uint64, entries []Entry) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].ID <= entries[i-1].ID {
			return fmt.Errorf("segment: batch entries out of order (%d after %d)", entries[i].ID, entries[i-1].ID)
		}
	}
	if w.f == nil {
		if err := w.startFile(gen); err != nil {
			return w.poison(err)
		}
	}
	w.payload = encodeBatch(w.payload[:0], gen, entries)
	w.buf = appendRecord(w.buf[:0], recBatch, w.payload)
	rec := w.buf
	if err := w.writeAll(rec); err != nil {
		return w.poison(err)
	}
	w.appends++
	w.appendedBytes += int64(len(rec))
	if w.policy >= 0 {
		w.sinceSync++
		every := int(w.policy)
		if every < 1 {
			every = 1
		}
		if w.sinceSync >= every {
			if err := w.f.Sync(); err != nil {
				return w.poison(err)
			}
			w.syncs++
			w.sinceSync = 0
		}
	}
	return nil
}

// writeAll writes b fully or fails (a short write is a failure: the frame
// is torn on disk and nothing may be appended after it).
func (w *WAL) writeAll(b []byte) error {
	n, err := w.f.Write(b)
	if err == nil && n < len(b) {
		err = fmt.Errorf("segment: short write (%d of %d bytes)", n, len(b))
	}
	return err
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
	hdr := appendRecord(nil, recHeader, encodeWALHeader(w.fingerprint, startGen, seq))
	if n, err := f.Write(hdr); err != nil || n < len(hdr) {
		f.Close()
		if err == nil {
			err = fmt.Errorf("segment: short header write")
		}
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.active = f, name
	w.nextSeq = seq + 1
	w.files = append(w.files, walFile{seq: seq, startGen: startGen})
	w.appendedBytes += int64(len(hdr))
	return nil
}

// Rotate seals the active file (sync + seal record + sync) and arranges
// for the next append to start a fresh file at nextGen. Sealing is the
// gate for compaction: only sealed spans may be compacted and removed.
func (w *WAL) Rotate(nextGen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.f != nil {
		seal := appendRecord(nil, recSeal, nil)
		if err := w.writeAll(seal); err != nil {
			return w.poison(err)
		}
		if err := w.f.Sync(); err != nil {
			return w.poison(err)
		}
		w.syncs++
		w.sinceSync = 0
		if err := w.f.Close(); err != nil {
			return w.poison(err)
		}
		w.f, w.active = nil, ""
		if len(w.files) > 0 {
			w.files[len(w.files)-1].sealed = true
		}
	}
	return w.startFileLocked(nextGen)
}

// startFileLocked is startFile with poisoning; callers hold w.mu.
func (w *WAL) startFileLocked(startGen uint64) error {
	if err := w.startFile(startGen); err != nil {
		return w.poison(err)
	}
	return nil
}

// RemoveBelow deletes sealed WAL files whose entire generation range lies
// below gen — call it after the covering segment (or snapshot) is durable.
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

// EarliestStartGen reports the start generation of the oldest WAL file,
// or false when the log holds no files. After recovery it is the earliest
// generation the log still carries — the point the next compaction span
// must start at.
func (w *WAL) EarliestStartGen() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.files) == 0 {
		return 0, false
	}
	return w.files[0].startGen, true
}
