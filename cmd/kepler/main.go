// Command kepler replays an MRT-lite archive (produced by cmd/topogen)
// through the detection pipeline and reports classified incidents and
// localized infrastructure outages. The colocation map and community
// dictionary are reconstructed from the same world seed the archive was
// generated with — the moral equivalent of Kepler refreshing its dictionary
// and PeeringDB snapshot for the archive's time period.
//
// Replay runs on the engine that skips idle bins (core.NewEngine): one
// path-state shard on the reading goroutine, investigation at bin
// boundaries, the output of the reference engine that closes every bin.
// Table dumps and updates are fed through the engine one record at a time,
// and each outage is printed as it completes.
//
// Outage and incident reports go to stdout in a fixed format; diagnostics
// go to stderr through log/slog (-log-format text|json, -log-level).
// -bin-stats additionally prints a staged bin-close latency summary (due
// promotions, probe collection, classification, ...) at exit.
//
// Usage:
//
//	kepler -seed 1 -archive archive.mrt [-tfail 0.1] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"kepler/internal/core"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/topology"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "kepler:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected (it has already
// printed why).
var errUsage = errors.New("usage")

// run replays one archive: outage reports (and, with -v, incidents) go to
// stdout, diagnostics to stderr. It stops at the first read error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kepler", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "world seed the archive was generated with")
		archive  = fs.String("archive", "archive.mrt", "MRT-lite archive to replay")
		tfail    = fs.Float64("tfail", 0.10, "outage signal threshold")
		verbose  = fs.Bool("v", false, "also print link/AS-level incidents")
		unres    = fs.Bool("report-unresolved", true, "report outages whose epicenter could not be pinned (no data plane in replay mode)")
		logFmt   = fs.String("log-format", "text", "stderr diagnostics format: text or json")
		logLvl   = fs.String("log-level", "info", "minimum diagnostic severity: debug, info, warn or error")
		binStats = fs.Bool("bin-stats", false, "print a staged bin-close latency summary at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if *seed < 0 {
		return fmt.Errorf("-seed must be non-negative, got %d (a world cannot be generated from a negative seed)", *seed)
	}
	if *tfail <= 0 || *tfail > 1 {
		return fmt.Errorf("-tfail must be in (0,1], got %v (it is the fraction of an AS's stable paths that must divert)", *tfail)
	}
	logger, err := newLogger(stderr, *logFmt, *logLvl)
	if err != nil {
		return err
	}

	cfg := topology.DefaultConfig()
	cfg.Seed = *seed
	w, err := topology.Generate(cfg)
	if err != nil {
		return err
	}
	stack := pipeline.Build(w, 77)
	logger.Info("dictionary built",
		"communities", stack.Dict.Len(), "ases", len(stack.Dict.CoveredASNs()),
		"trackable_facilities", trackable(stack), "facilities", stack.Map.NumFacilities())

	f, err := os.Open(*archive)
	if err != nil {
		return err
	}
	defer f.Close()

	kcfg := core.DefaultConfig()
	kcfg.Tfail = *tfail
	kcfg.ReportUnresolved = *unres

	eng := stack.NewEngine(kcfg, 0)
	var stage *metrics.BinStageStats
	if *binStats {
		stage = &metrics.BinStageStats{}
		eng.SetBinStageStats(stage)
	}

	rd := mrt.NewReader(f)
	var last time.Time
	records := 0
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		records++
		last = rec.Time
		for _, o := range eng.Process(rec) {
			printOutage(stdout, stack, o)
		}
	}
	for _, o := range eng.Flush(last) {
		printOutage(stdout, stack, o)
	}
	logger.Info("ingest finished", "stats", eng.Stats())
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
	for _, inc := range eng.Incidents() {
		counts[inc.Kind]++
		if *verbose && inc.Kind != core.IncidentPoP {
			fmt.Fprintf(stdout, "incident %s %-9s signal=%v affected=%d links=%d\n",
				inc.Time.Format("2006-01-02 15:04"), inc.Kind, inc.SignalPoP,
				len(inc.AffectedASes), inc.Links)
		}
	}
	logger.Info("replay finished", "records", records,
		"link", counts[core.IncidentLink], "as", counts[core.IncidentAS],
		"operator", counts[core.IncidentOperator], "pop", counts[core.IncidentPoP])
	return nil
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

func printOutage(w io.Writer, stack *pipeline.Stack, o core.Outage) {
	name := stack.World.PoPName(o.PoP)
	if name == "" {
		name = o.PoP.String()
	}
	fmt.Fprintf(w, "OUTAGE %-30q %s  %s -> %s (%s)  affected-ASes=%d paths=%d\n",
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
