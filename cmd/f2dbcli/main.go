// Command f2dbcli is an interactive shell for the F²DB engine: it builds
// a data set, selects (or loads) a model configuration and answers
// forecast queries typed at the prompt — either against an in-process
// engine or, with -remote, against a running f2dbd daemon over the wire
// protocol.
//
// Usage:
//
//	f2dbcli -dataset tourism
//	f2dbcli -dataset gen1k -config config.f2db
//	f2dbcli -csv facts.csv -dims "product;location=city<region" -period 12
//	f2dbcli -dataset tourism -metrics :9090    # Prometheus text on /metrics
//	f2dbcli -dataset tourism -wal-dir /tmp/t   # state persists across runs
//	f2dbcli -remote localhost:7071             # REPL against a live f2dbd
//	f2dbcli -remote localhost:7071 -exec '\ping'
//	f2dbcli -dataset tourism -workload 10 -workload-queries 4
//	f2dbcli -dataset tourism -remote localhost:7071 -workload 10
//
// Queries:
//
//	SELECT time, SUM(m) FROM facts WHERE state = 'NSW' GROUP BY time AS OF now() + '2 steps'
//	EXPLAIN SELECT time, SUM(m) FROM facts WHERE purpose = 'holiday'
//	INSERT INTO facts VALUES ('holiday', 'NSW', 123.4)
//
// Meta commands: \stats, \models, \help, \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cubefc/internal/cube"
	"cubefc/internal/daemon"
	"cubefc/internal/f2db"
	"cubefc/internal/fclient"
	"cubefc/internal/workload"
)

// options are the parsed flags: the three shared groups plus what only the
// shell has — where to connect, what to run, and the workload's shape.
type options struct {
	src    daemon.Source
	eng    daemon.Engine
	met    daemon.Metrics
	remote string
	exec   string
	wl     workload.Options
	wlSeed int64
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	o.src.Register(fs)
	o.eng.Register(fs)
	o.met.Register(fs)
	fs.StringVar(&o.remote, "remote", "", "connect to a running f2dbd at this address instead of opening a local engine")
	fs.StringVar(&o.exec, "exec", "", "execute one statement (SQL, \\ping, \\stats or \\info) and exit")
	fs.IntVar(&o.wl.TimePoints, "workload", 0, "run the interleaved insert/query workload for this many time points instead of the REPL")
	fs.IntVar(&o.wl.QueriesPerInsert, "workload-queries", 4, "workload: forecast queries per insert")
	fs.IntVar(&o.wl.Horizon, "workload-horizon", 1, "workload: forecast horizon in steps")
	fs.IntVar(&o.wl.InsertWriters, "workload-writers", 1, "workload: concurrent insert streams (with -remote: writer connections)")
	fs.IntVar(&o.wl.RemoteReaders, "workload-readers", 1, "workload: reader connections (-remote only)")
	fs.Int64Var(&o.wlSeed, "workload-seed", 1, "workload: generator seed")
	fs.IntVar(&o.wl.HotQueries, "workload-hot", 0, "workload: draw queries from a fixed hot set of this many statements (0 = all-random; exercises result caches)")
	fs.Float64Var(&o.wl.HotFraction, "workload-hot-frac", 0.9, "workload: fraction of queries drawn from the hot set (with -workload-hot)")
	fs.IntVar(&o.wl.Phases, "workload-phases", 0, "workload: split the hot set into this many time-varying phases, cycling one per time point (with -workload-hot; 0 = flat mix)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "f2dbcli:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func run(o *options) error {
	if o.remote != "" && o.wl.TimePoints > 0 {
		// Remote workload: the local side only needs the graph, to render
		// the same SQL the daemon's data set understands.
		g, _, err := o.src.Graph()
		if err != nil {
			return err
		}
		o.wl.RemoteAddr = o.remote
		return o.workload(nil, g)
	}
	var sh shell
	if o.remote != "" {
		cl, err := fclient.Dial(o.remote, fclient.Options{})
		if err != nil {
			return err
		}
		defer cl.Close()
		sh = shell{executor: cl, cl: cl, over: "f2dbd at " + o.remote}
	} else {
		if err := o.met.Check(); err != nil {
			return err
		}
		h, err := o.eng.Open(&o.src, logf)
		if err != nil {
			return err
		}
		defer func() {
			if err := h.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "f2dbcli:", err)
			}
		}()
		if err := o.met.Serve(logf, h.DB.Registry()); err != nil {
			return err
		}
		if o.wl.TimePoints > 0 {
			if h.Graph == nil {
				return fmt.Errorf("-workload needs a data set graph; it does not run against a recovered -wal-dir")
			}
			o.wl.UseSQL = true
			return o.workload(h.DB, h.Graph)
		}
		sh = shell{executor: local{h.DB}, db: h.DB, over: fmt.Sprintf("%s (%d nodes)", h.Name, h.DB.Graph().NumNodes())}
	}
	if o.exec != "" {
		return sh.stmt(o.exec)
	}
	sh.repl()
	return nil
}

// workload runs the interleaved insert/query workload over g's base
// series — against db, or against -remote when db is nil — and reports it.
func (o *options) workload(db *f2db.DB, g *cube.Graph) error {
	res, err := workload.Run(db, workload.New(g, o.wlSeed), o.wl)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d inserts, %d queries in %v (avg query %v)\n",
		res.Inserts, res.Queries, res.TotalTime.Round(0), res.AvgQueryTime)
	if res.QueryTime > 0 || res.MaintainTime > 0 {
		fmt.Printf("engine: query=%v maintain=%v reestimations=%d (%v engine time/query)\n",
			res.QueryTime, res.MaintainTime, res.Reestimations, res.EngineTimePerQuery())
	}
	return nil
}

// executor is who answers a statement: a live f2dbd through
// *fclient.Client, or the in-process engine through local.
type executor interface {
	Query(sql string) (*f2db.Result, error)
	Exec(sql string) error
	Ping() error
	Stats() (string, error)
}

// local answers for the in-process engine: \stats renders the engine's
// registry.
type local struct{ *f2db.DB }

func (local) Ping() error { return nil }

func (l local) Stats() (string, error) {
	var b strings.Builder
	err := l.Registry().WriteStats(&b)
	return b.String(), err
}

// shell runs statements over an executor; exactly one of db (\models,
// \health) and cl (\info) is set.
type shell struct {
	executor
	db   *f2db.DB
	cl   *fclient.Client
	over string
}

// stmt executes one statement or meta command.
func (sh shell) stmt(stmt string) error {
	switch {
	case stmt == `\ping`:
		if err := sh.Ping(); err != nil {
			return err
		}
		fmt.Println("pong")
	case stmt == `\stats`:
		text, err := sh.Stats()
		if err != nil {
			return err
		}
		fmt.Print(text)
	case stmt == `\info` && sh.cl != nil:
		info, err := sh.cl.Info()
		if err != nil {
			return err
		}
		fmt.Printf("inserts=%d batches=%d\n", info.Inserts, info.Batches)
	case stmt == `\models` && sh.db != nil:
		cfg, g := sh.db.Configuration(), sh.db.Graph()
		for _, id := range cfg.ModelIDs() {
			fmt.Printf("  %-40s %s\n", g.NodeKey(id), cfg.ModelFamily(id))
		}
	case stmt == `\health` && sh.db != nil:
		health := sh.db.Health()
		keys := make([]string, 0, len(health))
		for k := range health {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := health[k]
			marker := ""
			if h.Invalid {
				marker = "  INVALID"
			}
			fmt.Printf("  %-40s %-8s updates=%-4d rolling-err=%.4f%s\n",
				k, h.Family, h.UpdatesSinceFit, h.RollingError, marker)
		}
	case strings.HasPrefix(strings.ToLower(stmt), "insert"):
		if err := sh.Exec(stmt); err != nil {
			return err
		}
		fmt.Println("ok")
	default:
		res, err := sh.Query(stmt)
		if err != nil {
			return err
		}
		printResult(res)
	}
	return nil
}

// repl runs the interactive loop.
func (sh shell) repl() {
	fmt.Printf("F²DB shell over %s. Type \\help for help.\n", sh.over)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("f2db> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		switch line := strings.TrimSpace(sc.Text()); line {
		case "":
		case `\quit`, `\q`:
			return
		case `\help`:
			printHelp()
		default:
			if err := sh.stmt(line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// printResult renders one query result, shared by the local and remote
// paths.
func printResult(res *f2db.Result) {
	if res.Plan != "" {
		fmt.Printf("node %s: %s\n", res.NodeKey, res.Plan)
	}
	for _, grp := range res.Groups {
		rows := grp.Rows
		if len(res.Groups) > 1 {
			fmt.Printf("%s:\n", grp.NodeKey)
		}
		if len(rows) > 12 {
			fmt.Printf("  (%d rows, last 12)\n", len(rows))
			rows = rows[len(rows)-12:]
		}
		for _, r := range rows {
			marker := ""
			if res.Forecast {
				marker = " (forecast)"
			}
			if r.Lo != 0 || r.Hi != 0 {
				fmt.Printf("  t=%-6d %12.4f  [%.4f, %.4f]%s\n", r.T, r.Value, r.Lo, r.Hi, marker)
			} else {
				fmt.Printf("  t=%-6d %12.4f%s\n", r.T, r.Value, marker)
			}
		}
	}
}

func printHelp() {
	fmt.Print(`queries:
  SELECT time, SUM(m)|AVG(m) FROM facts [WHERE <level> = '<member>' [AND ...]]
         [GROUP BY time[, <level>]] [AS OF now() + '<n> <unit>']
         [WITH INTERVAL <percent>]
  GROUP BY a hierarchy level (e.g. city) drills down: one series per member.
  WITH INTERVAL 95 adds prediction-interval bounds to forecast rows.
  EXPLAIN SELECT ...            show the derivation scheme of the node
  INSERT INTO facts VALUES ('<member>', ..., <value>)[, (...), ...]
  Multi-row INSERTs take the batched write path (one lock per statement).
meta:
  \stats   engine counters      \models      list models
  \health  model maintenance    \help        this help
  \quit    exit
  (remote shells support \stats, \ping and \info — the server's applied
  insert and batch counters. State persists with -wal-dir, which
  checkpoints on exit.)
`)
}
