// Command adeptctl is the interactive face of the ADEPT2 reproduction: it
// replays the paper's demo (Section 3) on the terminal — schema rendering,
// worklists, an ad-hoc instance change, a schema evolution with migration
// report — renders schemas, runs quick migration drills, and administers
// the durability subsystem (journal seeding, checkpoints, compaction).
//
//	adeptctl demo                 # the paper's Fig. 1 / Fig. 3 walkthrough
//	adeptctl schema [-version N]  # render the online-order schema
//	adeptctl drill -n 5000        # migrate a synthetic population
//	adeptctl seed -journal wal    # build a small journaled workload
//	adeptctl snapshot -journal wal# write a checkpoint of the journal state
//	adeptctl compact -journal wal # checkpoint, then drop the covered prefix
//	adeptctl reshard -journal wal -shards 4  # repartition offline
//	adeptctl verify -journal wal  # what Open would recover, offline (-repair fixes tails)
//	adeptctl list -journal wal    # page through instances and worklists
//	adeptctl load -journal wal -mode batch   # drive the Submit API
//	adeptctl serve -journal wal -addr :8137  # the one network surface: commands + ops routes
//	adeptctl load -remote http://host:8137   # the same load against a served system
//
// list and load always speak the rpc client: -remote dials a served
// system, -journal opens the store and serves it on an in-process
// loopback listener first, so both run the same code.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adept2"
	"adept2/internal/change"
	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/mining"
	"adept2/internal/monitor"
	"adept2/internal/obs"
	"adept2/internal/persist"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/sim/soak"
	"adept2/internal/vfs"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		demo()
	case "schema":
		schemaCmd(os.Args[2:])
	case "drill":
		drill(os.Args[2:])
	case "seed":
		seed(os.Args[2:])
	case "snapshot":
		snapshot(os.Args[2:])
	case "compact":
		compact(os.Args[2:])
	case "reshard":
		reshard(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "list":
		list(os.Args[2:])
	case "load":
		load(os.Args[2:])
	case "serve":
		serveCmd(os.Args[2:])
	case "stats":
		stats(os.Args[2:])
	case "mine":
		mine(os.Args[2:])
	case "trace":
		trace(os.Args[2:])
	case "sim":
		simCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: adeptctl demo
       adeptctl schema [-version N]
       adeptctl drill [-n N] [-mode fast|replay]
       adeptctl seed -journal PATH [-n N] [-shards N]
       adeptctl snapshot -journal PATH [-dir DIR]
       adeptctl compact -journal PATH [-dir DIR]
       adeptctl reshard -journal PATH -shards N [-dir DIR]
       adeptctl verify -journal PATH [-dir DIR] [-repair]   (runs Open's recovery: needs Open's memory)
       adeptctl list -journal PATH | -remote URL [-user U] [-page N]
       adeptctl load -journal PATH [-shards N] | -remote URL [-n N] [-mode sync|async|batch]
       adeptctl serve -journal PATH [-addr ADDR] [-shards N]
       adeptctl stats -journal PATH [-format text|prom|json]
       adeptctl stats -fetch URL
       adeptctl mine -journal PATH [-format text|json] [-variants N]
       adeptctl mine -fetch URL
       adeptctl trace -journal PATH [-format text|json] [-n N]
       adeptctl trace -fetch URL [-after N] [-format text|json]
       adeptctl sim [-steps N] [-instances N] [-seed N] [-shards N] [-stats] ...`)
	os.Exit(2)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func demo() {
	e := engine.New(sim.Org())
	must(e.Deploy(sim.OnlineOrder()))

	fmt.Println("── deployed process type (version V1) ──")
	fmt.Print(monitor.RenderSchema(sim.OnlineOrder()))

	i1, err := e.CreateInstance("online_order", 0)
	must(err)
	must(sim.AdvanceOnlineOrderToI1(e, i1))

	i2, err := e.CreateInstance("online_order", 0)
	must(err)
	must(e.CompleteActivity(i2.ID(), "get_order", "ann", map[string]any{"out": "order-2"}))
	must(change.ApplyAdHoc(i2, sim.OnlineOrderBiasI2()...))

	i3, err := e.CreateInstance("online_order", 0)
	must(err)
	must(sim.AdvanceOnlineOrderToI3(e, i3))

	fmt.Println("\n── worklists before the type change ──")
	fmt.Print(monitor.SummarizeWorklists(e))

	fmt.Println("\n── committing type change ΔT (send_questions + sync edge) ──")
	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
	must(err)
	fmt.Print(monitor.FormatReport(report))

	fmt.Println("\n── instance states after migration ──")
	for _, inst := range []*engine.Instance{i1, i2, i3} {
		fmt.Print(monitor.RenderInstance(inst))
		fmt.Println()
	}
}

func schemaCmd(args []string) {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	version := fs.Int("version", 1, "schema version to render (1 or 2)")
	must(fs.Parse(args))
	s := sim.OnlineOrder()
	if *version >= 2 {
		for _, op := range sim.OnlineOrderTypeChange() {
			must(op.ApplyTo(s))
		}
		s.SetVersion(2)
		s.SetSchemaID("online_order@v2")
	}
	fmt.Print(monitor.RenderSchema(s))
}

func drill(args []string) {
	fs := flag.NewFlagSet("drill", flag.ExitOnError)
	n := fs.Int("n", 5000, "population size")
	mode := fs.String("mode", "fast", "compliance check: fast or replay")
	seed := fs.Int64("seed", 1, "workload seed")
	must(fs.Parse(args))
	if *n <= 0 || (*mode != "fast" && *mode != "replay") {
		usage()
	}

	e := engine.New(sim.Org())
	must(e.Deploy(sim.OnlineOrder()))
	rng := rand.New(rand.NewSource(*seed))
	_, err := sim.BuildPopulation(e, rng, sim.DefaultPopulationOpts(*n))
	must(err)

	opts := evolution.Options{}
	if *mode == "replay" {
		opts.Mode = evolution.ReplayCheck
	}
	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), opts)
	must(err)

	fmt.Printf("migrated %d instances in %s (%.1f µs/instance, %s check)\n",
		report.Total(), report.Elapsed,
		float64(report.Elapsed.Microseconds())/float64(report.Total()), opts.Mode)
	for _, o := range evolution.Outcomes() {
		if c := report.Count(o); c > 0 {
			fmt.Printf("  %-20s %d\n", o.String()+":", c)
		}
	}
}

// seed builds a small self-contained journaled workload (users journaled
// too, so recovery needs no out-of-band org model): the quickstart input
// for snapshot/compact smoke runs.
func seed(args []string) {
	fs := flag.NewFlagSet("seed", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file to create (required)")
	n := fs.Int("n", 8, "instances to create")
	shards := fs.Int("shards", 0, "shard count of the layout to create (0 = one shard)")
	must(fs.Parse(args))
	if *journal == "" {
		usage()
	}

	sys, err := adept2.Open(*journal, adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1, Shards: *shards}))
	must(err)
	submit := func(cmd adept2.Command) any {
		res, err := sys.Submit(context.Background(), cmd)
		must(err)
		return res
	}
	for _, u := range []*adept2.User{
		{ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales"}},
		{ID: "bob", Name: "Bob", Roles: []string{"warehouse", "finance"}},
	} {
		submit(&adept2.AddUser{User: u})
	}
	submit(&adept2.Deploy{Schema: sim.OnlineOrder()})
	for i := 0; i < *n; i++ {
		id := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
		submit(&adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann",
			Outputs: map[string]any{"out": fmt.Sprintf("order-%d", i)}})
		if i == 0 {
			submit(&adept2.AdHoc{Instance: id, Ops: sim.OnlineOrderBiasI2()})
		}
	}
	submit(&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()})
	seq := sys.JournalSeq()
	must(sys.Close())
	fmt.Printf("seeded %s: %d instances, journal seq %d\n", *journal, *n, seq)
}

// openDurable opens a journal-backed system for the admin commands
// (automatic snapshots off — they snapshot explicitly) and reports how
// it recovered.
func openDurable(journal string, cfg adept2.CheckpointConfig) *adept2.System {
	if journal == "" {
		usage()
	}
	cfg.Every = -1
	sys, err := adept2.Open(journal, adept2.WithCheckpointing(cfg))
	must(err)
	printRecovery(sys.Recovery())
	return sys
}

// printRecovery reports how a layout recovers: from which snapshot with
// how many records on top, per shard when there are several, and every
// generation rejected on the way.
func printRecovery(info *adept2.RecoveryInfo) {
	switch {
	case info.FullReplay:
		fmt.Printf("recovered by full replay: %d records\n", info.Replayed)
	default:
		fmt.Printf("recovered from snapshot seq %d + %d-record suffix\n", info.SnapshotSeq, info.Replayed)
	}
	if info.Shards > 1 {
		fmt.Printf("  %d shards:", info.Shards)
		for _, sr := range info.PerShard {
			fmt.Printf("  [%d: snap %d +%d]", sr.Shard, sr.SnapshotSeq, sr.Replayed)
		}
		fmt.Println()
	}
	for _, fb := range info.Fallbacks {
		fmt.Printf("  fallback: %s\n", fb)
	}
}

// snapshot checkpoints the full state of a journal into the snapshot
// store.
func snapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required)")
	dir := fs.String("dir", "", "snapshot directory (default JOURNAL.snapshots)")
	must(fs.Parse(args))
	sys := openDurable(*journal, adept2.CheckpointConfig{Dir: *dir})
	file, seq, err := sys.Checkpoint()
	must(err)
	must(sys.Close())
	info, err := durable.ReadSnapshotInfo(vfs.OS(), file)
	must(err)
	fmt.Printf("snapshot %s covering journal seq %d (%d B payload, %d B compressed, %.1fx)\n",
		file, seq, info.RawLen, info.StoredLen, float64(info.RawLen)/float64(info.StoredLen))
}

// compact checkpoints, then rewrites every shard journal without the
// records the new generation covers (the journals are closed before the
// rewrite — compaction is an offline operation).
func compact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required)")
	dir := fs.String("dir", "", "snapshot directory (default JOURNAL.snapshots)")
	must(fs.Parse(args))
	sys := openDurable(*journal, adept2.CheckpointConfig{Dir: *dir})
	file, _, err := sys.Checkpoint()
	must(err)
	shards := sys.NumShards()
	must(sys.Close())
	dropped, err := sharded.CompactAll(*journal)
	must(err)
	fmt.Printf("snapshot generation at %s; dropped %d records across %d shard journal(s)\n", file, dropped, shards)
}

// reshard repartitions a durability layout offline: snapshot-all under
// the new instance-to-shard hash, commit the new global manifest, sweep
// the obsolete artifacts.
func reshard(args []string) {
	fs := flag.NewFlagSet("reshard", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required)")
	shards := fs.Int("shards", 0, "target shard count (required)")
	dir := fs.String("dir", "", "snapshot directory root (default sibling directories per shard)")
	must(fs.Parse(args))
	if *journal == "" || *shards < 1 {
		usage()
	}
	var opts []adept2.Option
	if *dir != "" {
		opts = append(opts, adept2.WithCheckpointing(adept2.CheckpointConfig{Dir: *dir}))
	}
	must(adept2.Reshard(*journal, *shards, opts...))
	fmt.Printf("resharded %s to %d shards\n", *journal, *shards)
}

// verify surveys a durability layout offline: journal tail probes per
// shard (sequence gaps, torn trailing bytes), full CRC validation of
// every snapshot file, and Open's own recovery run on the layout and
// discarded — so it reports what Open would restore and replay, or Open's
// refusal, and needs the memory Open needs. Exits 1 on a refusal.
func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required)")
	dir := fs.String("dir", "", "snapshot directory root (default sibling directories)")
	repair := fs.Bool("repair", false, "truncate torn journal tails in place")
	must(fs.Parse(args))
	if *journal == "" {
		usage()
	}
	var opts []adept2.Option
	if *dir != "" {
		opts = append(opts, adept2.WithCheckpointing(adept2.CheckpointConfig{Dir: *dir}))
	}
	rep := adept2.VerifyLayout(*journal, *repair, opts...)
	fmt.Printf("%s: %d shard(s), %d generation(s)", *journal, len(rep.Shards), rep.Generations)
	if !rep.Sharded {
		fmt.Printf(" (no global manifest yet: the generations are shard 0's snapshot listing)")
	}
	fmt.Println()
	for _, sc := range rep.Shards {
		state := "clean"
		switch {
		case sc.Repaired:
			state = fmt.Sprintf("repaired %d torn byte(s)", sc.TornBytes)
		case sc.TornBytes > 0 || sc.OpenTail:
			state = fmt.Sprintf("%d torn byte(s)", sc.TornBytes)
		}
		fmt.Printf("  shard %d: journal seq %d..%d, tail %s\n", sc.Shard, sc.FirstSeq, sc.LastSeq, state)
		for _, s := range sc.Snapshots {
			if s.Err == "" {
				fmt.Printf("    snapshot %s (seq %d) OK\n", s.File, s.Seq)
			} else {
				fmt.Printf("    snapshot %s (seq %d) INVALID: %s\n", s.File, s.Seq, s.Err)
			}
		}
	}
	if rep.Recovery != nil {
		printRecovery(rep.Recovery)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("warning: %s\n", w)
	}
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %v\n", p)
	}
	if !rep.OK() {
		os.Exit(1)
	}
	fmt.Println("verify: OK")
}

// dial returns the client list and load run on: a served system at
// remote, or — for -journal — the store opened here and served on an
// in-process loopback listener, so both modes run the same code. done
// drains the loopback server and closes the store.
func dial(remote, journal string, cfg adept2.CheckpointConfig) (*rpc.Client, func()) {
	ctx := context.Background()
	done := func() {}
	if remote == "" {
		sys := openDurable(journal, cfg)
		srv, err := rpc.NewServer(sys, rpc.Options{})
		must(err)
		remote = srv.URL()
		done = func() {
			must(srv.Close(ctx))
			must(sys.Close())
		}
	}
	cli, err := rpc.Dial(ctx, remote)
	must(err)
	return cli, func() {
		cli.Close()
		done()
	}
}

// list pages through the instances (and, with -user, a user's worklist)
// of a system via the cursor read API — the paginated path a front end
// would use instead of copying full slices.
func list(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required unless -remote)")
	user := fs.String("user", "", "also page this user's worklist")
	page := fs.Int("page", 5, "page size")
	remote := fs.String("remote", "", "page a served system at URL instead of opening a journal")
	must(fs.Parse(args))
	ctx := context.Background()
	cli, done := dial(*remote, *journal, adept2.CheckpointConfig{})
	defer done()

	pages, total := 0, 0
	for cursor := ""; ; {
		pg, err := cli.Instances(ctx, cursor, *page)
		must(err)
		if len(pg.Instances) > 0 {
			pages++
		}
		for _, inst := range pg.Instances {
			total++
			state := "running"
			switch {
			case inst.Done:
				state = "completed"
			case inst.Suspended:
				state = "suspended"
			}
			bias := ""
			if inst.Biased {
				bias = " +bias"
			}
			fmt.Printf("  %s  %s v%d  %s%s\n", inst.ID, inst.Type, inst.Version, state, bias)
		}
		if pg.Next == "" {
			break
		}
		cursor = pg.Next
	}
	fmt.Printf("%d instances in %d pages of %d\n", total, pages, *page)

	if *user != "" {
		n := 0
		for cursor := ""; ; {
			pg, err := cli.WorkItems(ctx, *user, cursor, *page)
			must(err)
			for _, it := range pg.Items {
				n++
				fmt.Printf("  %s (%s, %s)\n", it.ID, it.Role, it.State)
			}
			if pg.Next == "" {
				break
			}
			cursor = pg.Next
		}
		fmt.Printf("%d work items for %s\n", n, *user)
	}
}

// load drives a synthetic workload through the command plane: every
// instance is created, completed one step, and (batch mode) suspend/
// resume cycled, submitted via Submit (sync), SubmitAsync (pipelined
// receipts), or SubmitBatch, per -mode. The org user and schema
// bootstrap travels as commands too, tolerating a system that already
// has them. The CI smoke uses it to exercise every mode end to end.
func load(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file to create (required unless -remote)")
	n := fs.Int("n", 64, "instances to drive")
	mode := fs.String("mode", "batch", "submission mode: sync, async, or batch")
	shards := fs.Int("shards", 0, "with -journal: create a sharded layout with N shards")
	remote := fs.String("remote", "", "drive a served system at URL instead of opening a journal")
	must(fs.Parse(args))
	ctx := context.Background()
	cli, done := dial(*remote, *journal, adept2.CheckpointConfig{Shards: *shards})
	defer done()

	if _, err := cli.Submit(ctx, &adept2.AddUser{User: &adept2.User{
		ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales"}}}); err != nil &&
		!errors.Is(err, adept2.ErrConflict) && !errors.Is(err, adept2.ErrInvalid) {
		must(err)
	}
	// A system that already has the schema answers version_skew.
	if _, err := cli.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil &&
		!errors.Is(err, adept2.ErrConflict) && !errors.Is(err, adept2.ErrVersionSkew) {
		must(err)
	}

	start := time.Now()
	var cmds int
	outputs := func(i int) map[string]any {
		return map[string]any{"out": fmt.Sprintf("order-%d", i)}
	}
	switch *mode {
	case "sync":
		for i := 0; i < *n; i++ {
			res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			must(err)
			_, err = cli.Submit(ctx, &adept2.CompleteActivity{
				Instance: res.Result.Instance.ID, Node: "get_order", User: "ann", Outputs: outputs(i)})
			must(err)
			cmds += 2
		}
	case "async":
		receipts := make([]*rpc.Receipt, 0, 2*(*n))
		for i := 0; i < *n; i++ {
			r, err := cli.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			must(err)
			r2, err := cli.SubmitAsync(ctx, &adept2.CompleteActivity{
				Instance: r.Result().Instance.ID, Node: "get_order", User: "ann", Outputs: outputs(i)})
			must(err)
			receipts = append(receipts, r, r2)
		}
		for _, r := range receipts {
			must(r.Wait(ctx))
		}
		cmds = len(receipts)
	case "batch":
		for i := 0; i < *n; i++ {
			res, err := cli.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			must(err)
			id := res.Result.Instance.ID
			results, err := cli.SubmitBatch(ctx, []adept2.Command{
				&adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann", Outputs: outputs(i)},
				&adept2.Suspend{Instance: id},
				&adept2.Resume{Instance: id},
			})
			must(err)
			cmds += 1 + len(results)
		}
	default:
		usage()
	}
	elapsed := time.Since(start)
	wms, err := cli.Watermarks(ctx)
	must(err)
	sum, err := cli.Health(ctx)
	must(err)
	target := *remote
	if target == "" {
		target = *journal
	}
	fmt.Printf("%s: %d commands (%s mode) in %s (%.0f cmds/s), %d shards, watermarks %v, %d instances\n",
		target, cmds, *mode, elapsed.Round(time.Millisecond),
		float64(cmds)/elapsed.Seconds(), sum.Shards, wms, sum.Instances)
}

// sweepEvery is the deadline sweep cadence of a served system: armed
// deadlines expire and retry backoffs lift within a second of coming due.
const sweepEvery = time.Second

// serveCmd exposes a journaled system on its one network surface: open,
// serve the command plane (one command route, POST /v1/commands, for
// commands and batch frames; the /v1 reads and the watermark stream) and
// the ops routes (/metrics, /metrics.json, /mine.json, /trace.json,
// /healthz) on -addr, block until SIGINT/SIGTERM, then drain — in-flight
// receipts resolve against the final watermarks — and close.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required; created if missing)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	shards := fs.Int("shards", 0, "create a sharded layout with N shards")
	must(fs.Parse(args))
	if *journal == "" {
		usage()
	}
	sys, err := adept2.Open(*journal,
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1, Shards: *shards}),
		adept2.WithSweepInterval(sweepEvery))
	must(err)
	srv, err := rpc.NewServer(sys, rpc.Options{Addr: *addr})
	must(err)
	fmt.Printf("serving command plane and stats at %s\n", srv.URL())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("draining")
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	must(srv.Close(ctx))
	must(sys.Close())
}

// stats is the operational stats plane on the command line: open a
// journaled store and print its metrics snapshot (text, Prometheus
// exposition, or JSON), or fetch and validate a served system's
// /metrics or /metrics.json (the CI smoke uses -fetch to hold the
// Prometheus text to the family table and the JSON to the snapshot).
func stats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required unless -fetch)")
	format := fs.String("format", "text", "output format: text, prom, or json")
	fetchURL := fs.String("fetch", "", "GET a live endpoint URL and validate its payload instead of opening a journal")
	must(fs.Parse(args))

	if *fetchURL != "" {
		must(validateEndpoint(*fetchURL))
		return
	}
	if *journal == "" {
		usage()
	}
	sys, err := adept2.Open(*journal, adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	must(err)
	defer sys.Close()

	snap := sys.Metrics()
	switch *format {
	case "prom":
		must(obs.WritePrometheus(os.Stdout, snap))
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(snap))
	case "text":
		must(obs.WriteText(os.Stdout, snap))
	default:
		usage()
	}
}

// fetch GETs url and returns the body and content type of a 200 answer.
func fetch(url string) (body []byte, ctype string, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// validateEndpoint GETs url and validates the payload: a /metrics.json
// endpoint must round-trip through the typed snapshot (strict field
// check), a /metrics endpoint must pass obs.CheckExposition.
func validateEndpoint(url string) error {
	body, ctype, err := fetch(url)
	if err != nil {
		return err
	}
	if strings.Contains(ctype, "json") {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var snap obs.Snapshot
		if err := dec.Decode(&snap); err != nil {
			return fmt.Errorf("stats: %s: snapshot JSON does not round-trip: %w", url, err)
		}
		if _, err := json.Marshal(&snap); err != nil {
			return fmt.Errorf("stats: %s: snapshot re-encode: %w", url, err)
		}
		fmt.Printf("stats: %s OK: JSON snapshot round-trips (%d ops, %d shards, %d traces)\n",
			url, len(snap.Ops), len(snap.Shards), len(snap.Traces))
		return nil
	}
	samples, err := obs.CheckExposition(body)
	if err != nil {
		return fmt.Errorf("stats: %s: %w", url, err)
	}
	fmt.Printf("stats: %s OK: %d samples; every declared family present, every histogram cumulative\n", url, samples)
	return nil
}

// mine runs the process-intelligence scan: open a journaled layout
// (recovering its population), stream every instance history through
// the internal/mining fold, and render the report — variant
// frequencies, hot paths, per-node exception concentration and
// duration quantiles, and drift against the latest deployed schema
// versions. With -fetch it instead GETs a running system's /mine.json
// endpoint and validates the payload decodes strictly (the CI smoke's
// schema pin).
func mine(args []string) {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required unless -fetch)")
	format := fs.String("format", "text", "output format: text or json")
	variants := fs.Int("variants", 0, "variant-table cap (0 = default)")
	fetchURL := fs.String("fetch", "", "GET a live /mine.json URL and validate its payload")
	must(fs.Parse(args))

	if *fetchURL != "" {
		must(validateMineEndpoint(*fetchURL))
		return
	}
	sys := openDurable(*journal, adept2.CheckpointConfig{})
	defer sys.Close()
	rep, err := sys.Mine(context.Background(), adept2.MineOptions{MaxVariants: *variants})
	must(err)
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(rep))
	case "text":
		fmt.Print(rep.Text())
	default:
		usage()
	}
}

// validateMineEndpoint GETs a /mine.json URL and round-trips the body
// through the strict report decoder.
func validateMineEndpoint(url string) error {
	body, _, err := fetch(url)
	if err != nil {
		return err
	}
	rep, err := mining.Decode(body)
	if err != nil {
		return fmt.Errorf("mine: %s: %w", url, err)
	}
	fmt.Printf("mine: %s OK: %d instances, %d variants, %d nodes, %d drift rows\n",
		url, rep.Instances, rep.DistinctVariants, len(rep.Nodes), len(rep.Drift))
	return nil
}

// trace surfaces the span plane. Offline (-journal) it synthesizes
// spans straight from the journal records — op, instance, shard, seq,
// and the submit timestamp where the record carries one — because a
// reopened system's live ring is empty (the metric Set installs after
// recovery, and replay records nothing). With -fetch it drains a
// running system's /trace.json export cursor. Both views share the
// obs.Span schema, so the offline miner and the live stream are the
// same shape to consumers.
func trace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file (required unless -fetch)")
	format := fs.String("format", "text", "output format: text or json")
	limit := fs.Int("n", 0, "print at most the last N spans (0 = all)")
	fetchURL := fs.String("fetch", "", "drain a live /trace.json URL instead of reading a journal")
	after := fs.Uint64("after", 0, "with -fetch: drain only spans published after this cursor")
	must(fs.Parse(args))

	var spans []obs.Span
	switch {
	case *fetchURL != "":
		exp, err := fetchTraces(*fetchURL, *after)
		must(err)
		spans = exp.Spans
		defer fmt.Printf("next cursor: %d\n", exp.Next)
	case *journal != "":
		var err error
		spans, err = journalSpans(*journal)
		must(err)
	default:
		usage()
	}
	if *limit > 0 && len(spans) > *limit {
		spans = spans[len(spans)-*limit:]
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(spans))
	case "text":
		for _, sp := range spans {
			line := fmt.Sprintf("shard %d seq %-6d %-9s %s", sp.Shard, sp.Seq, sp.Op, sp.Instance)
			if sp.SubmitNanos > 0 {
				line += fmt.Sprintf("  submit=%d", sp.SubmitNanos)
			}
			if sp.AppliedNanos > 0 {
				line += fmt.Sprintf(" applied=+%dns", sp.AppliedNanos-sp.SubmitNanos)
			}
			if sp.DurableNanos > 0 {
				line += fmt.Sprintf(" durable=+%dns", sp.DurableNanos-sp.SubmitNanos)
			}
			if sp.Err != "" {
				line += " err=" + sp.Err
			}
			fmt.Println(line)
		}
		fmt.Printf("%d spans\n", len(spans))
	default:
		usage()
	}
}

// fetchTraces drains a /trace.json endpoint with a strict decode.
func fetchTraces(url string, after uint64) (*obs.TraceExport, error) {
	if after > 0 {
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		url += fmt.Sprintf("%safter=%d", sep, after)
	}
	body, _, err := fetch(url)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var exp obs.TraceExport
	if err := dec.Decode(&exp); err != nil {
		return nil, fmt.Errorf("trace: %s: export does not round-trip: %w", url, err)
	}
	return &exp, nil
}

// journalSpans synthesizes the offline span view of a layout: one span
// per journal record across every shard, ordered (shard, seq).
func journalSpans(journal string) ([]obs.Span, error) {
	lay, _, _, err := sharded.Resolve(sharded.Layout{Base: journal})
	if err != nil {
		return nil, err
	}
	var spans []obs.Span
	for shard := 0; shard < lay.Shards; shard++ {
		recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), lay.JournalPath(shard), 0)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			sp := obs.Span{Op: rec.Op, Shard: shard, Seq: rec.Seq}
			var meta struct {
				Instance string `json:"instance"`
				At       int64  `json:"at"`
			}
			if json.Unmarshal(rec.Args, &meta) == nil {
				sp.Instance = meta.Instance
				sp.SubmitNanos = meta.At
			}
			spans = append(spans, sp)
		}
	}
	return spans, nil
}

// simCmd runs the adversarial fault-tolerance soak (internal/sim): random
// activity failures, deadline storms, schema evolutions, injected disk
// faults, crashes, and reopen checks on an in-memory store, asserting the
// soak invariants (no lost work items, no wedged instances, no
// acknowledged-write loss, replay fidelity, liveness).
func simCmd(args []string) {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	cfg := soak.DefaultConfig()
	fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "driver steps")
	fs.IntVar(&cfg.Instances, "instances", cfg.Instances, "target live instances")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "scenario seed")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "journal shards (0/1 = one shard)")
	fs.Float64Var(&cfg.FailProb, "fail", cfg.FailProb, "per-action activity failure probability")
	fs.BoolVar(&cfg.DeadlineStorm, "storm", cfg.DeadlineStorm, "periodic deadline storms")
	fs.IntVar(&cfg.EvolveEvery, "evolve", cfg.EvolveEvery, "steps between schema evolutions (0 = never)")
	fs.IntVar(&cfg.AdHocEvery, "adhoc", cfg.AdHocEvery, "steps between ad-hoc changes (0 = never)")
	fs.BoolVar(&cfg.DiskFaults, "faults", cfg.DiskFaults, "inject transient disk faults")
	fs.IntVar(&cfg.ReopenEvery, "reopen", cfg.ReopenEvery, "steps between close→reopen checks (0 = never)")
	fs.IntVar(&cfg.CrashEvery, "crash", cfg.CrashEvery, "steps between simulated crashes (0 = never)")
	fs.IntVar(&cfg.MaxRetries, "retries", cfg.MaxRetries, "exception policy retry budget")
	showStats := fs.Bool("stats", false, "print the soak's telemetry summary")
	must(fs.Parse(args))

	start := time.Now()
	res, err := soak.Run(context.Background(), cfg)
	must(err)
	fmt.Printf("soak passed in %s\n  %s\n", time.Since(start).Round(time.Millisecond), res)
	if *showStats {
		fmt.Printf("telemetry (post-drain session):\n%s", res.MetricsSummary)
	}
}
