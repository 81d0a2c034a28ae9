// Command kepler replays an MRT-lite archive (produced by cmd/topogen)
// through the detection pipeline and reports classified incidents and
// localized infrastructure outages. The colocation map and community
// dictionary are reconstructed from the same world seed the archive was
// generated with — the moral equivalent of Kepler refreshing its dictionary
// and PeeringDB snapshot for the archive's time period.
//
// Replay runs on the sharded concurrent engine by default (one path-state
// shard per core, investigation synchronized at bin boundaries); -shards 1
// selects the sequential single-shard detector, which produces identical
// output.
//
// Outage and incident reports go to stdout in a fixed format; diagnostics
// go to stderr through log/slog (-log-format text|json, -log-level).
// -bin-stats additionally prints a staged bin-close latency summary (shard
// barrier, divert merge, classification, ...) at exit.
//
// Usage:
//
//	kepler -seed 1 -archive archive.mrt [-shards N] [-tfail 0.1] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"kepler/internal/core"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/topology"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "world seed the archive was generated with")
		archive  = flag.String("archive", "archive.mrt", "MRT-lite archive to replay")
		tfail    = flag.Float64("tfail", 0.10, "outage signal threshold")
		verbose  = flag.Bool("v", false, "also print link/AS-level incidents")
		unres    = flag.Bool("report-unresolved", true, "report outages whose epicenter could not be pinned (no data plane in replay mode)")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "path-state shard workers; 1 runs the sequential detector, <= 0 one worker per core")
		logFmt   = flag.String("log-format", "text", "stderr diagnostics format: text or json")
		logLvl   = flag.String("log-level", "info", "minimum diagnostic severity: debug, info, warn or error")
		binStats = flag.Bool("bin-stats", false, "print a staged bin-close latency summary at exit")
	)
	flag.Parse()

	if *seed < 0 {
		fatal(fmt.Errorf("-seed must be non-negative, got %d (a world cannot be generated from a negative seed)", *seed))
	}
	if *tfail <= 0 || *tfail > 1 {
		fatal(fmt.Errorf("-tfail must be in (0,1], got %v (it is the fraction of an AS's stable paths that must divert)", *tfail))
	}
	logger, err := newLogger(os.Stderr, *logFmt, *logLvl)
	if err != nil {
		fatal(err)
	}

	cfg := topology.DefaultConfig()
	cfg.Seed = *seed
	w, err := topology.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	stack := pipeline.Build(w, 77)
	logger.Info("dictionary built",
		"communities", stack.Dict.Len(), "ases", len(stack.Dict.CoveredASNs()),
		"trackable_facilities", trackable(stack), "facilities", stack.Map.NumFacilities())

	f, err := os.Open(*archive)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	kcfg := core.DefaultConfig()
	kcfg.Tfail = *tfail
	kcfg.ReportUnresolved = *unres

	// Both paths share one processing interface; the engine additionally
	// reports ingestion stats at exit.
	type detection interface {
		Process(*mrt.Record) []core.Outage
		Flush(time.Time) []core.Outage
		Incidents() []core.Incident
	}
	var det detection
	var eng *core.Engine
	var stage *metrics.BinStageStats
	if *binStats {
		stage = &metrics.BinStageStats{}
	}
	if *shards == 1 {
		d := stack.NewDetector(kcfg)
		if stage != nil {
			d.SetBinStageStats(stage)
		}
		det = d
	} else {
		// Engine resolves <= 0 to one worker per core.
		eng = stack.NewEngine(kcfg, *shards)
		defer eng.Close()
		if stage != nil {
			eng.SetBinStageStats(stage)
		}
		det = eng
	}

	rd := mrt.NewReader(f)
	var last time.Time
	records := 0
	// Archives lead with a table dump; with the engine, buffer that prefix
	// and bulk-load it across the shards before streaming the updates.
	var ribPrefix []*mrt.Record
	bootstrapping := eng != nil
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if bootstrapping {
			if rec.Kind == mrt.KindRIB {
				ribPrefix = append(ribPrefix, rec)
				records++
				last = rec.Time
				continue
			}
			bootstrapping = false
			outs, err := eng.BootstrapRIB(ribPrefix)
			if err != nil {
				fatal(err)
			}
			ribPrefix = nil
			for _, o := range outs {
				printOutage(stack, o)
			}
		}
		records++
		last = rec.Time
		for _, o := range det.Process(rec) {
			printOutage(stack, o)
		}
	}
	if bootstrapping {
		outs, err := eng.BootstrapRIB(ribPrefix)
		if err != nil {
			fatal(err)
		}
		for _, o := range outs {
			printOutage(stack, o)
		}
	}
	for _, o := range det.Flush(last) {
		printOutage(stack, o)
	}
	if eng != nil {
		logger.Info("ingest finished", "stats", eng.Stats())
	}
	if stage != nil {
		snap := stage.Snapshot()
		attrs := []any{"bins", snap.Total.Count,
			"mean", snap.Total.Mean(), "p50", snap.Total.Quantile(0.50),
			"p99", snap.Total.Quantile(0.99)}
		for i, name := range metrics.BinStageNames {
			attrs = append(attrs, name, snap.Stages[i].Mean())
		}
		logger.Info("bin-close latency", attrs...)
	}

	counts := map[core.IncidentKind]int{}
	for _, inc := range det.Incidents() {
		counts[inc.Kind]++
		if *verbose && inc.Kind != core.IncidentPoP {
			fmt.Printf("incident %s %-9s signal=%v affected=%d links=%d\n",
				inc.Time.Format("2006-01-02 15:04"), inc.Kind, inc.SignalPoP,
				len(inc.AffectedASes), inc.Links)
		}
	}
	logger.Info("replay finished", "records", records,
		"link", counts[core.IncidentLink], "as", counts[core.IncidentAS],
		"operator", counts[core.IncidentOperator], "pop", counts[core.IncidentPoP])
}

// newLogger builds the stderr diagnostics logger; report output (stdout)
// stays fixed-format regardless.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be one of debug, info, warn, error; got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

func printOutage(stack *pipeline.Stack, o core.Outage) {
	name := stack.World.PoPName(o.PoP)
	if name == "" {
		name = o.PoP.String()
	}
	fmt.Printf("OUTAGE %-30q %s  %s -> %s (%s)  affected-ASes=%d paths=%d\n",
		name, o.PoP, o.Start.Format("2006-01-02 15:04"), o.End.Format("15:04"),
		o.Duration().Round(time.Minute), len(o.AffectedASes), o.DivertedPaths)
}

func trackable(stack *pipeline.Stack) int {
	n := 0
	for _, f := range stack.Map.Facilities() {
		if ok, _ := stack.Map.Trackable(f.ID, stack.Dict.Covers); ok {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kepler:", err)
	os.Exit(1)
}
