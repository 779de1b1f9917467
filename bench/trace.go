package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubefc/internal/f2db"
	"cubefc/internal/segment"
	"cubefc/internal/server"
)

// Tracing lives entirely in the benchmark's own files: decorators around
// the calls into each layer (server.Backend for the coordinator and the
// shard engines, segment.FS under the WAL, and the client call itself)
// record spans into memory; the parent of a span is worked out afterwards
// from interval containment. Spans inside the program are a later change.

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch. Parent is the index of the innermost span whose
// interval contains this one (-1 for a root); Op is the index of the
// client operation the span belongs to (-1 for background work such as
// the replication of an INSERT that outlives its acknowledgement).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder collects spans while switched on. A nil recorder records
// nothing, so untraced runs pass nil and pay nothing.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin returns the span's start time, or 0 when recording is off.
func (r *recorder) begin() int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end records the span begun at start; op is the client operation index
// for client spans and -1 for everything below it.
func (r *recorder) end(name string, start int64, op int) {
	if start == 0 {
		return
	}
	s := span{Name: name, Start: start, End: int64(time.Since(r.epoch)), Parent: -1, Op: op}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// layer ranks a span by the layer that recorded it, outermost first. A
// span's parent is always of an outer layer: two shard spans of one
// fan-out overlap without either having caused the other.
func layer(name string) int {
	switch prefix, _, _ := strings.Cut(name, "."); prefix {
	case "client", "direct":
		return 0
	case "coord", "core":
		return 1
	case "fs":
		return 3
	}
	return 2 // shard0, shard1
}

// take stops recording and returns the spans in start order with Parent
// and Op resolved: the parent is the innermost span of an outer layer
// whose interval contains the span's.
func (r *recorder) take() []span {
	r.on.Store(false)
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var open []int // spans begun and not yet ended, in start order
	for i := range spans {
		s := &spans[i]
		live := open[:0]
		for _, o := range open {
			if spans[o].End >= s.Start {
				live = append(live, o)
			}
		}
		open = live
		for k := len(open) - 1; k >= 0; k-- {
			if p := &spans[open[k]]; p.End >= s.End && layer(p.Name) < layer(s.Name) {
				s.Parent = open[k]
				if s.Op < 0 {
					s.Op = p.Op
				}
				break
			}
		}
		open = append(open, i)
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend times every Query and Exec that crosses a server.Backend.
type tracedBackend struct {
	server.Backend
	rec  *recorder
	name string
}

func (b tracedBackend) Query(sql string) (*f2db.Result, error) {
	t := b.rec.begin()
	res, err := b.Backend.Query(sql)
	b.rec.end(b.name+".query", t, -1)
	return res, err
}

func (b tracedBackend) Exec(sql string) error {
	t := b.rec.begin()
	err := b.Backend.Exec(sql)
	b.rec.end(b.name+".exec", t, -1)
	return err
}

// engineBackend serves an embedded engine; it is what server.New builds
// internally, spelled out here so that a traced run can wrap it.
type engineBackend struct{ db *f2db.DB }

func (b engineBackend) Query(sql string) (*f2db.Result, error) { return b.db.Query(sql) }
func (b engineBackend) Exec(sql string) error                  { return b.db.Exec(sql) }
func (b engineBackend) StatsText() string                      { return b.db.Metrics().String() }
func (b engineBackend) Counts() (uint64, uint64) {
	st := b.db.Stats()
	return uint64(st.Inserts), uint64(st.Batches)
}

// timedFS counts and times the writes and fsyncs of the durability layer.
type timedFS struct {
	segment.FS
	rec           *recorder
	writes, syncs atomic.Int64
}

func (f *timedFS) Create(name string) (segment.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *timedFS) Append(name string) (segment.File, error) { return f.wrap(f.FS.Append(name)) }

func (f *timedFS) wrap(file segment.File, err error) (segment.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	segment.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := f.fs.rec.begin()
	n, err := f.File.Write(p)
	f.fs.rec.end("fs.write", t, -1)
	f.fs.writes.Add(1)
	return n, err
}

func (f *timedFile) Sync() error {
	t := f.fs.rec.begin()
	err := f.File.Sync()
	f.fs.rec.end("fs.sync", t, -1)
	f.fs.syncs.Add(1)
	return err
}

// budget is the per-layer split of the median client operation, in
// nanoseconds. The layers of one operation partition its client span
// exactly, but medians taken layer by layer do not add up when the
// operations are of two kinds (a cache hit and a miss, say). So the split
// is taken over the operations in the p40–p60 band of client latency and
// each layer's figure is its mean over that band: where the median
// operation spends its time.
type budget struct {
	ops       int
	client    float64 // median client span
	frontSelf float64 // client span − coordinator-backend span
	coordSelf float64 // coordinator-backend span − the part its shard spans cover
	shard     float64 // the part of the coordinator span shard-backend spans cover
	shardFrac float64 // share of the band's operations that reached a shard
	querySelf float64 // median shard-backend query span, over all of them
	execSelf  float64 // median shard-backend exec span, over all of them
}

// analyse splits every client operation of kind ("query" or "exec") into
// layer self times. A layer's self time is its span minus what its child
// spans cover; parallel shard spans of a drill-down count once.
func analyse(spans []span, kind string) budget {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type split struct{ client, front, coord, shard float64 }
	var ops []split
	var query, exec []float64
	for i, s := range spans {
		dur := float64(s.End - s.Start)
		switch s.Name {
		case "shard0.query", "shard1.query":
			query = append(query, dur)
		case "shard0.exec", "shard1.exec":
			exec = append(exec, dur)
		}
		if s.Name != "client."+kind {
			continue
		}
		for _, c := range children[i] {
			if cs := spans[c]; cs.Name == "coord."+kind {
				cdur := float64(cs.End - cs.Start)
				covered := float64(coverage(spans, children[c]))
				ops = append(ops, split{client: dur, front: dur - cdur, coord: cdur - covered, shard: covered})
			}
		}
	}
	b := budget{ops: len(ops), querySelf: median(query), execSelf: median(exec)}
	if len(ops) == 0 {
		return b
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].client < ops[j].client })
	b.client = ops[len(ops)/2].client
	band := ops[len(ops)*4/10 : max(len(ops)*6/10, len(ops)*4/10+1)]
	for _, o := range band {
		n := float64(len(band))
		b.frontSelf += o.front / n
		b.coordSelf += o.coord / n
		b.shard += o.shard / n
		if o.shard > 0 {
			b.shardFrac += 1 / n
		}
	}
	return b
}

// coverage is the length of the union of the given spans' intervals.
func coverage(spans []span, idx []int) int64 {
	sort.Slice(idx, func(i, j int) bool { return spans[idx[i]].Start < spans[idx[j]].Start })
	var total, end int64
	for _, i := range idx {
		s := spans[i]
		if s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

func (b budget) String() string {
	return fmt.Sprintf("ops=%d client=%.1fus front=%.1fus coord=%.1fus shard=%.1fus (reached %.0f%%)",
		b.ops, b.client/1e3, b.frontSelf/1e3, b.coordSelf/1e3, b.shard/1e3, 100*b.shardFrac)
}
