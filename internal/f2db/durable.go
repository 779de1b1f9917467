package f2db

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"cubefc/internal/cube"
	"cubefc/internal/segment"
)

// Durability layer: a directory holding the engine's persistent state as
// three cooperating artifacts —
//
//	snapshot.db            whole-engine image (SaveDatabase), rewritten
//	                       atomically (tmp + fsync + rename + dir fsync)
//	                       at Checkpoint
//	wal-<seq>.log          write-ahead log of committed insert batches
//	                       (internal/segment), appended at group commit
//	seg-<from>-<to>.seg    columnar compactions of sealed WAL spans
//
// Recovery at OpenDurable replays them oldest-truth-first: load the last
// snapshot, apply segments that extend past it, then the WAL tail — every
// step generation-checked against the invariant that the engine's series
// length IS its generation (each batch advance appends exactly one
// observation to every series), so a batch already covered by a newer
// artifact is skipped and a gap is a hard error rather than silent
// corruption.
//
// Durability contract: a batch is durable once complete (group commit at
// the batch advance, fsynced per the SyncPolicy before the engine applies
// it). Values of the current INCOMPLETE batch are volatile until the batch
// completes or a Checkpoint captures them — exactly the exposure they had
// between whole-DB snapshots before the WAL existed, now shrunk from
// "since the last snapshot" to "the current partial batch". Model states
// replay deterministically from the snapshot through advanceBatch; re-fits
// a crashed process performed after the snapshot are re-derived lazily
// (they are caches of the series data, which is recovered exactly).

// snapshotFileName is the engine image inside a durable directory.
const snapshotFileName = "snapshot.db"

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the durable directory (created if missing).
	Dir string
	// FS is the filesystem the layer writes through; nil selects the real
	// one (segment.OSFS). Tests inject segment.MemFS to prove crash
	// behavior byte-for-byte.
	FS segment.FS
	// Sync is the WAL fsync policy. The zero value is segment.SyncAlways:
	// every committed batch is durable before the engine applies it.
	Sync segment.SyncPolicy
	// CompactEvery compacts the sealed WAL span into a columnar segment
	// after every n committed batches; 0 disables compaction (the WAL
	// grows until a Checkpoint prunes it).
	CompactEvery int
}

// RecoveryInfo reports what OpenDurable found and replayed.
type RecoveryInfo struct {
	// FreshBuild is true when no snapshot existed and the engine was built
	// by the caller's build function (and anchored with an initial
	// snapshot).
	FreshBuild bool
	// SnapshotGen is the generation (series length) of the loaded or
	// freshly written snapshot.
	SnapshotGen uint64
	// SegmentBatches and WALBatches count batch advances replayed from
	// columnar segments and from the WAL tail.
	SegmentBatches int
	WALBatches     int
	// TornBytes is the size of the torn WAL tail recovery discarded —
	// non-zero exactly when the previous process died mid-append.
	TornBytes int64
}

// Durable couples an engine with its write-ahead log and segment store.
// Every method that touches the log or the compaction state below runs
// under the engine's maintenance lock (DB.maint): commit inside the batch
// advance, the others by taking it.
type Durable struct {
	db          *DB
	fs          segment.FS
	dir         string
	wal         *segment.WAL
	fingerprint uint64

	compactEvery int
	sinceCompact int
	compactFrom  uint64          // generation the next segment starts at
	entries      []segment.Entry // commit's reused WAL form of the column

	// Recovery reports what OpenDurable replayed.
	Recovery RecoveryInfo
}

// OpenDurable opens (or creates) a durable engine in dopts.Dir. When a
// snapshot exists it is loaded under opts and the segment/WAL tail is
// replayed into it; otherwise build constructs the fresh engine (advisor
// run, workload generator, …) and an initial snapshot is written
// immediately, so recovery never depends on re-running the build. The
// returned engine has the WAL installed as its group-commit gate: every
// completed batch is logged (and fsynced per dopts.Sync) before it is
// applied.
func OpenDurable(dopts DurableOptions, opts Options, build func() (*DB, error)) (*Durable, error) {
	fs := dopts.FS
	if fs == nil {
		fs = segment.OSFS{}
	}
	if dopts.Dir == "" {
		return nil, errors.New("f2db: OpenDurable needs a directory")
	}
	if err := fs.MkdirAll(dopts.Dir); err != nil {
		return nil, fmt.Errorf("f2db: creating durable dir: %w", err)
	}
	d := &Durable{fs: fs, dir: dopts.Dir, compactEvery: dopts.CompactEvery}

	snapPath := path.Join(dopts.Dir, snapshotFileName)
	snapData, err := fs.ReadFile(snapPath)
	switch {
	case err == nil:
		db, err := LoadDatabase(bytes.NewReader(snapData), opts)
		if err != nil {
			return nil, fmt.Errorf("f2db: loading snapshot %s: %w", snapPath, err)
		}
		d.db = db
	case errors.Is(err, iofs.ErrNotExist):
		if build == nil {
			return nil, fmt.Errorf("f2db: no snapshot in %s and no build function", dopts.Dir)
		}
		db, err := build()
		if err != nil {
			return nil, err
		}
		d.db = db
		d.Recovery.FreshBuild = true
	default:
		return nil, fmt.Errorf("f2db: reading snapshot %s: %w", snapPath, err)
	}
	d.fingerprint = graphFingerprint(d.db.graph)
	d.Recovery.SnapshotGen = uint64(d.db.graph.Length)

	// Anchor a fresh build with an initial snapshot before anything else:
	// from here on recovery is always snapshot + replay, never a re-build.
	if d.Recovery.FreshBuild {
		if err := d.writeSnapshot(); err != nil {
			return nil, err
		}
	}

	// Every replayed batch is assembled in this one column.
	column := make([]float64, len(d.db.graph.BaseIDs))
	if err := d.replaySegments(column); err != nil {
		return nil, err
	}

	wal, info, err := segment.OpenWAL(fs, dopts.Dir, d.fingerprint, dopts.Sync, func(gen uint64, entries []segment.Entry) error {
		// Entries come ID-ascending, as BaseIDs is: the record is a batch of
		// this database exactly when the two agree position by position.
		ids := d.db.graph.BaseIDs
		if len(entries) != len(ids) {
			return errBatchSize(len(ids), len(entries))
		}
		for i, e := range entries {
			if e.ID != int64(ids[i]) {
				if !d.db.graph.IsBase(int(e.ID)) {
					return fmt.Errorf("cube: Advance: %d is not a base node", e.ID)
				}
				return fmt.Errorf("f2db: replayed batch %d has no value for base node %d", gen, ids[i])
			}
			column[i] = e.Value
		}
		applied, err := d.applyReplayedBatch(gen, column)
		if err != nil {
			return err
		}
		if applied {
			d.Recovery.WALBatches++
			d.db.met.walReplayed.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.wal = wal
	d.Recovery.TornBytes = info.TornBytes

	// The next compaction span starts where the log's oldest surviving
	// file does — or at the current length when the log is empty (every
	// earlier generation is already in the snapshot or a segment).
	d.compactFrom = uint64(d.db.graph.Length)
	if first, ok := wal.EarliestStartGen(); ok && first < d.compactFrom {
		d.compactFrom = first
	}

	d.db.commitHook = d.commit
	d.mirrorWALStats()
	return d, nil
}

// DB returns the underlying engine.
func (d *Durable) DB() *DB { return d.db }

// errBatchSize refuses a replayed batch without one value per base series,
// in the words Graph.Advance refuses a column with.
func errBatchSize(want, got int) error {
	return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", want, got)
}

// replaySegments applies every columnar segment extending past the loaded
// snapshot, oldest first, generation-checked, one generation at a time
// through column.
func (d *Durable) replaySegments(column []float64) error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return err
	}
	type segFile struct {
		name     string
		from, to uint64
	}
	var segs []segFile
	for _, name := range names {
		if from, to, ok := parseSegmentName(name); ok {
			segs = append(segs, segFile{name: name, from: from, to: to})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].from < segs[j].from })
	for _, sf := range segs {
		length := uint64(d.db.graph.Length)
		if sf.to <= length {
			continue // fully covered by the snapshot or an earlier segment
		}
		data, err := d.fs.ReadFile(path.Join(d.dir, sf.name))
		if err != nil {
			return err
		}
		hdr, series, err := segment.DecodeSegment(data)
		if err != nil {
			return fmt.Errorf("f2db: segment %s: %w", sf.name, err)
		}
		if hdr.Fingerprint != d.fingerprint {
			return fmt.Errorf("f2db: segment %s belongs to another database (fingerprint %016x, want %016x)",
				sf.name, hdr.Fingerprint, d.fingerprint)
		}
		if hdr.FromGen != sf.from || hdr.ToGen != sf.to {
			return fmt.Errorf("f2db: segment %s header claims span [%d,%d)", sf.name, hdr.FromGen, hdr.ToGen)
		}
		if hdr.FromGen > length {
			return fmt.Errorf("f2db: recovery gap: segment %s starts at %d, database at %d", sf.name, hdr.FromGen, length)
		}
		// Column → batches: resolve each series to its base node's ordinal
		// once, then re-assemble one complete batch per generation in the
		// span. A series named twice leaves another without values.
		cols := make([][]float64, len(column))
		distinct := 0
		for _, s := range series {
			id, found := d.db.graph.LookupID(s.Key)
			ord, ok := d.db.graph.BaseOrdinal(id)
			if !found || !ok {
				return fmt.Errorf("f2db: segment %s: series %q is not a base node", sf.name, s.Key)
			}
			if uint64(len(s.Values)) != sf.to-sf.from {
				return fmt.Errorf("f2db: segment %s: series %q has %d values for span [%d,%d)", sf.name, s.Key, len(s.Values), sf.from, sf.to)
			}
			if len(s.Times) > 0 && (uint64(s.Times[0]) != sf.from || s.Times[0] < 0) {
				return fmt.Errorf("f2db: segment %s: series %q starts at generation %d, span at %d", sf.name, s.Key, s.Times[0], sf.from)
			}
			if cols[ord] == nil {
				distinct++
			}
			cols[ord] = s.Values
		}
		if distinct != len(cols) {
			return fmt.Errorf("f2db: segment %s: %w", sf.name, errBatchSize(len(cols), distinct))
		}
		for gen := length; gen < sf.to; gen++ {
			for ord, vals := range cols {
				column[ord] = vals[gen-sf.from]
			}
			applied, err := d.applyReplayedBatch(gen, column)
			if err != nil {
				return fmt.Errorf("f2db: segment %s: %w", sf.name, err)
			}
			if applied {
				d.Recovery.SegmentBatches++
			}
		}
	}
	return nil
}

// applyReplayedBatch advances the engine by one recovered batch, accounted
// as the live advance was: the rows not already held pending count as
// inserts, and the pending column is released. Rows are held only when the
// snapshot was taken mid-batch; they were counted when they arrived and
// belong to this very batch. A batch the engine already holds (snapshot
// newer than the log) is skipped; a batch from the future is a recovery gap
// and fails hard.
func (d *Durable) applyReplayedBatch(gen uint64, column []float64) (applied bool, err error) {
	db := d.db
	db.maint.Lock()
	defer db.maint.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	length := uint64(db.graph.Length)
	if gen < length {
		return false, nil
	}
	if gen > length {
		return false, fmt.Errorf("f2db: recovery generation gap: batch %d but database at %d", gen, length)
	}
	if err := db.advanceBatch(column); err != nil {
		return false, err
	}
	db.met.inserts.Add(int64(len(column)) - db.pendingTotal.Load())
	db.releaseColumn()
	return true, nil
}

// commit is the engine's group-commit gate (DB.commitHook): it runs inside
// the batch advance under maint but not the engine lock, so readers keep
// answering while it appends the batch to the WAL (fsyncing per policy)
// and — every CompactEvery batches — compacts the sealed WAL span into a
// columnar segment first, so the new batch opens a fresh log file.
func (d *Durable) commit(gen uint64, column []float64) error {
	if d.compactEvery > 0 && d.sinceCompact >= d.compactEvery && gen > d.compactFrom {
		if err := d.compactLocked(gen); err != nil {
			return err
		}
		d.sinceCompact = 0
	}
	// BaseIDs is ascending, so the column in its order is the ID-ordered
	// record the WAL wants.
	ids := d.db.graph.BaseIDs
	if d.entries == nil {
		d.entries = make([]segment.Entry, len(ids))
	}
	for i, id := range ids {
		d.entries[i] = segment.Entry{ID: int64(id), Value: column[i]}
	}
	if err := d.wal.Append(gen, d.entries); err != nil {
		return err
	}
	d.sinceCompact++
	d.mirrorWALStats()
	return nil
}

// compactLocked encodes history [compactFrom, toGen) into a segment,
// fsyncs it into place, then seals and prunes the WAL span it replaces.
// Runs under maint, which holds the series still; toGen equals the
// engine's current length (a committing batch is not yet applied, so
// history holds exactly the generations below toGen). Ordering is
// segment-then-prune: a crash between the two leaves the span in both
// artifacts, which recovery's generation check de-duplicates.
func (d *Durable) compactLocked(toGen uint64) error {
	g := d.db.graph
	from := d.compactFrom
	times := make([]int64, toGen-from)
	for i := range times {
		times[i] = int64(from) + int64(i)
	}
	keys := d.db.renderKeys(nil, g.BaseIDs) // one string for all of them, gone with the image
	series := make([]segment.Series, len(g.BaseIDs))
	for i, id := range g.BaseIDs {
		series[i] = segment.Series{Key: keys[i], Times: times, Values: g.NodeValues(id)[from:toGen]}
	}
	img, err := segment.EncodeSegment(segment.Header{Fingerprint: d.fingerprint, FromGen: from, ToGen: toGen}, series)
	if err != nil {
		return err
	}
	if err := segment.WriteFileSync(d.fs, d.dir, segmentFileName(from, toGen), img); err != nil {
		return err
	}
	d.db.met.segCompactions.Add(1)
	d.db.met.segBytes.Add(int64(len(img)))
	if err := d.wal.Rotate(toGen); err != nil {
		return err
	}
	if err := d.wal.RemoveBelow(toGen); err != nil {
		return err
	}
	d.compactFrom = toGen
	return nil
}

// Compact eagerly folds the sealed WAL span into a columnar segment,
// without waiting for the commit-path CompactEvery counter. The
// self-tuning control plane calls it in predicted workload troughs so the
// encode cost lands in idle buckets. It takes maint (the lock the
// commit-path compaction runs under) and is a no-op when there is no
// sealed history to fold.
func (d *Durable) Compact() error {
	db := d.db
	db.maint.Lock()
	defer db.maint.Unlock()
	gen := uint64(db.graph.Length)
	if gen <= d.compactFrom {
		return nil
	}
	if err := d.compactLocked(gen); err != nil {
		return err
	}
	d.sinceCompact = 0
	d.mirrorWALStats()
	return nil
}

// Checkpoint writes a full snapshot at the current generation, then prunes
// every WAL file and segment the snapshot supersedes. It holds maint for
// the duration — queries proceed, a batch advance waits — which buys the
// guarantee that the snapshot, the rotation point and the prune bound are
// one consistent generation.
func (d *Durable) Checkpoint() error {
	db := d.db
	db.maint.Lock()
	defer db.maint.Unlock()
	gen := uint64(db.graph.Length)
	if err := d.writeSnapshot(); err != nil {
		return err
	}
	if err := d.wal.Rotate(gen); err != nil {
		return err
	}
	if err := d.wal.RemoveBelow(gen); err != nil {
		return err
	}
	if err := d.removeSegmentsBelow(gen); err != nil {
		return err
	}
	d.compactFrom = gen
	d.sinceCompact = 0
	d.mirrorWALStats()
	return nil
}

// writeSnapshot serializes the engine and writes it through the crash-safe
// file protocol: tmp file, fsync, rename into place, fsync the directory.
// Either the old snapshot or the new one survives a crash — never a torn
// mixture, never a rename whose directory entry evaporates. The caller holds
// maint or is still single-threaded in OpenDurable.
func (d *Durable) writeSnapshot() error {
	var buf bytes.Buffer
	if err := d.db.saveDatabase(&buf); err != nil {
		return err
	}
	if err := segment.WriteFileSync(d.fs, d.dir, snapshotFileName, buf.Bytes()); err != nil {
		return err
	}
	d.db.met.snapshotWrites.Add(1)
	return nil
}

// removeSegmentsBelow deletes segments fully covered by generation gen.
func (d *Durable) removeSegmentsBelow(gen uint64) error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, name := range names {
		if _, to, ok := parseSegmentName(name); ok && to <= gen {
			if err := d.fs.Remove(path.Join(d.dir, name)); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return d.fs.SyncDir(d.dir)
	}
	return nil
}

// Close syncs and closes the WAL. The engine itself stays queryable, but
// further batch advances fail (the commit gate is closed) — call
// Checkpoint first for a clean shutdown that starts the next process from
// a snapshot.
func (d *Durable) Close() error {
	d.db.maint.Lock()
	defer d.db.maint.Unlock()
	return d.wal.Close()
}

// mirrorWALStats copies the WAL's counters into the engine metrics, from
// which Metrics() and the Prometheus exporter read them. Callers hold
// maint or are still single-threaded in OpenDurable.
func (d *Durable) mirrorWALStats() {
	appends, syncs, bytes, files := d.wal.Stats()
	d.db.met.walAppends.Store(appends)
	d.db.met.walSyncs.Store(syncs)
	d.db.met.walBytes.Store(bytes)
	d.db.met.walFiles.Store(int64(files))
}

// WriteSnapshotFile serializes the engine and writes it to fpath through
// the crash-safe file protocol: tmp file, fsync, rename into place, fsync
// of the parent directory. A nil fsys selects the real filesystem. Every
// binary's snapshot-saving path (f2dbd -save, f2dbcli \save) goes through
// this helper, so none can reintroduce the torn-snapshot windows a bare
// tmp+rename leaves open: the renamed file's blocks may still be
// unflushed, and the rename's own directory entry can be lost by a crash
// before the directory inode reaches disk.
func WriteSnapshotFile(fsys segment.FS, fpath string, db *DB) error {
	if fsys == nil {
		fsys = segment.OSFS{}
	}
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		return err
	}
	return segment.WriteFileSync(fsys, filepath.Dir(fpath), filepath.Base(fpath), buf.Bytes())
}

// segmentFileName names the columnar compaction of generations [from, to).
func segmentFileName(from, to uint64) string {
	return fmt.Sprintf("seg-%012d-%012d.seg", from, to)
}

// parseSegmentName inverts segmentFileName.
func parseSegmentName(name string) (from, to uint64, ok bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg")
	if _, err := fmt.Sscanf(body, "%d-%d", &from, &to); err != nil {
		return 0, 0, false
	}
	return from, to, from < to
}

// graphFingerprint hashes the cube's identity — dimensions with their
// hierarchy levels, the seasonal period, and every base series key in ID
// order — into the value that ties WAL files and segments to their
// database. Two graphs with equal fingerprints assign equal IDs to equal
// base keys, so the WAL's ID-keyed batches replay unambiguously.
func graphFingerprint(g *cube.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "dims=%d;period=%d;bases=%d;", len(g.Dims), g.Period, len(g.BaseIDs))
	for _, dim := range g.Dims {
		fmt.Fprintf(h, "dim=%s:%s;", dim.Name, strings.Join(dim.Levels, ","))
	}
	for _, id := range g.BaseIDs {
		fmt.Fprintf(h, "%d=%s;", id, g.KeyOf(id))
	}
	return h.Sum64()
}
