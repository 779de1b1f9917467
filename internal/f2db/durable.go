package f2db

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	iofs "io/fs"
	"path"
	"path/filepath"
	"strings"

	"cubefc/internal/cube"
	"cubefc/internal/segment"
)

// Durability layer: a directory holding the engine's persistent state as
// two artifacts —
//
//	snapshot.db      whole-engine image (SaveDatabase), rewritten
//	                 atomically (tmp + fsync + rename + dir fsync) at
//	                 Checkpoint
//	wal-<seq>.log    write-ahead log of committed insert batches
//	                 (internal/segment), one raw column per batch, appended
//	                 at group commit; every CompactEvery batches the active
//	                 file is sealed, and a sealed file is the segment
//
// Recovery at OpenDurable loads the last snapshot, then replays the WAL
// files in sequence — every step generation-checked against the invariant
// that the engine's series length IS its generation (each batch advance
// appends exactly one observation to every series), so a batch already
// covered by the snapshot is skipped and a gap is a hard error rather than
// silent corruption. Only Checkpoint removes WAL files: those its snapshot
// covers.
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
	// CompactEvery seals the active WAL file once it holds n batches, so
	// the next batch opens a new one; 0 never seals between checkpoints.
	// Either way the log grows until a Checkpoint prunes it.
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
	// WALBatches counts the batch advances replayed from the WAL, and
	// WALFiles the WAL files it found.
	WALBatches int
	WALFiles   int
	// TornBytes is the size of the torn WAL tail recovery discarded —
	// non-zero exactly when the previous process died mid-append.
	TornBytes int64
}

// Durable couples an engine with its write-ahead log. Every method that
// touches the log runs under the engine's maintenance lock (DB.maint):
// commit inside the batch advance, the others by taking it.
type Durable struct {
	db           *DB
	fs           segment.FS
	dir          string
	wal          *segment.WAL
	compactEvery int

	// Recovery reports what OpenDurable replayed.
	Recovery RecoveryInfo
}

// OpenDurable opens (or creates) a durable engine in dopts.Dir. When a
// snapshot exists it is loaded under opts and the WAL is replayed into
// it; otherwise build constructs the fresh engine (advisor
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
		db, err := loadDatabase(snapData, opts)
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
	d.Recovery.SnapshotGen = uint64(d.db.graph.Length)

	// Anchor a fresh build with an initial snapshot before anything else:
	// from here on recovery is always snapshot + replay, never a re-build.
	if d.Recovery.FreshBuild {
		if err := d.writeSnapshot(); err != nil {
			return nil, err
		}
	}
	if err := refuseSegments(fs, dopts.Dir); err != nil {
		return nil, err
	}

	// The fingerprint pins each position of a replayed column to its base
	// series: a column is a batch in BaseIDs order. One of another width is
	// refused in Advance's words, also when the snapshot covers its batch.
	wal, info, err := segment.OpenWAL(fs, dopts.Dir, graphFingerprint(d.db.graph), dopts.Sync, func(gen uint64, column []float64) error {
		if len(column) != len(d.db.graph.BaseIDs) {
			return fmt.Errorf("cube: Advance needs a value for all %d base series, got %d", len(d.db.graph.BaseIDs), len(column))
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
	d.Recovery.WALFiles = info.Files

	d.db.commitHook = d.commit
	d.mirrorWALStats()
	return d, nil
}

// DB returns the underlying engine.
func (d *Durable) DB() *DB { return d.db }

// refuseSegments fails on a seg-*.seg file, naming it and its magic:
// earlier versions compacted sealed WAL spans into such files, which this
// one neither reads nor may drop.
func refuseSegments(fs segment.FS, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") {
			p := path.Join(dir, name)
			data, err := fs.ReadFile(p)
			if err != nil {
				return err
			}
			return fmt.Errorf("f2db: %s: segment format %q is not read by this version, whose log is its wal-*.log files", p, segment.Magic(data))
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
// answering while it appends the batch's column to the WAL (fsyncing per
// policy) — first sealing the active file when it holds CompactEvery
// batches, so the new batch opens a fresh one.
func (d *Durable) commit(gen uint64, column []float64) error {
	if d.compactEvery > 0 && d.wal.ActiveBatches() >= d.compactEvery {
		if err := d.seal(gen); err != nil {
			return err
		}
	}
	if err := d.wal.AppendColumn(gen, column); err != nil {
		return err
	}
	d.mirrorWALStats()
	return nil
}

// seal closes the active WAL file with a seal record and starts the next
// one at nextGen, the engine's length. The caller holds maint.
func (d *Durable) seal(nextGen uint64) error {
	n, err := d.wal.Rotate(nextGen)
	if err != nil {
		return err
	}
	d.db.met.segCompactions.Add(1)
	d.db.met.segBytes.Add(n)
	return nil
}

// Compact seals the active WAL file at once, without waiting for the
// commit path's CompactEvery count. It takes maint (the lock the commit
// path seals under) and is a no-op when the active file holds no batch.
func (d *Durable) Compact() error {
	db := d.db
	db.maint.Lock()
	defer db.maint.Unlock()
	if d.wal.ActiveBatches() == 0 {
		return nil
	}
	if err := d.seal(uint64(db.graph.Length)); err != nil {
		return err
	}
	d.mirrorWALStats()
	return nil
}

// Checkpoint writes a full snapshot at the current generation, then prunes
// every WAL file the snapshot supersedes. It holds maint for
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
	if _, err := d.wal.Rotate(gen); err != nil {
		return err
	}
	if err := d.wal.RemoveBelow(gen); err != nil {
		return err
	}
	d.mirrorWALStats()
	return nil
}

// writeSnapshot serializes the engine and writes it through the crash-safe
// file protocol: tmp file, fsync, rename into place, fsync the directory.
// Either the old snapshot or the new one survives a crash — never a torn
// mixture, never a rename whose directory entry evaporates. The caller holds
// maint or is still single-threaded in OpenDurable.
func (d *Durable) writeSnapshot() error {
	img, err := d.db.appendSnapshot()
	if err != nil {
		return err
	}
	if err := segment.WriteFileSync(d.fs, d.dir, snapshotFileName, img); err != nil {
		return err
	}
	d.db.met.snapshotWrites.Add(1)
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

// graphFingerprint hashes the cube's identity — dimensions with their
// hierarchy levels, the seasonal period, and every base series key in ID
// order — into the value that ties WAL files to their database. Two
// graphs with equal fingerprints hold equal base keys in equal order, so a
// WAL column replays unambiguously.
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
