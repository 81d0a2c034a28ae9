// Command keplerd runs Kepler as a long-lived service: package
// internal/daemon, configured from the command line and stopped by SIGINT
// or SIGTERM. What the service does, flag by flag, is that package's doc.
//
// Usage:
//
//	keplerd -seed 1 -archive archive.mrt -listen 127.0.0.1:8080
//	keplerd -seed 1 -archive archive.mrt -data-dir /var/lib/kepler
//	keplerd -seed 1 -synthetic -speed 600
//	keplerd -seed 1 -synthetic -probe-backend sim -probe-budget 512
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kepler/internal/daemon"
)

func main() {
	c, err := parseFlags(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag package has reported it, with the usage
	case err == nil:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(ctx, stop) // a second signal kills a slow shutdown
		err = daemon.Run(ctx, c)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "keplerd:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag package rejected.
var errUsage = errors.New("usage")

// parseFlags turns keplerd's command line into a daemon.Config. Run
// validates the result; only the two logging flags, which become
// Config.Logger, are checked here.
func parseFlags(args []string) (daemon.Config, error) {
	var c daemon.Config
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.Int64Var(&c.Seed, "seed", 1, "world seed the archive was generated with")
	fs.StringVar(&c.Archive, "archive", "", "MRT-lite archive to replay")
	fs.BoolVar(&c.Synthetic, "synthetic", false, "soak mode: stream rendered scenario windows instead of an archive")
	fs.Float64Var(&c.Speed, "speed", 0, "archive replay speed multiplier; 0 replays at maximum speed")
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:8080", "HTTP listen address")
	fs.Float64Var(&c.Tfail, "tfail", 0.10, "outage signal threshold, in (0,1]")
	fs.BoolVar(&c.ReportUnresolved, "report-unresolved", true, "report outages whose epicenter could not be pinned (no data plane in replay mode)")
	fs.IntVar(&c.SSEBuffer, "sse-buffer", 256, "per-client SSE event queue; a client stalled past it loses events")
	fs.DurationVar(&c.ShutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful HTTP shutdown budget")
	fs.StringVar(&c.DataDir, "data-dir", "", "durable history directory (WAL + snapshots); empty keeps history in memory only")
	fs.Int64Var(&c.CompactMB, "compact-mb", 8, "WAL size in MiB past which the next bin close compacts into a snapshot segment")
	fs.DurationVar(&c.CheckpointInterval, "checkpoint-interval", 15*time.Minute, "least stream time between engine state checkpoints (with -data-dir): one is captured at the first bin close this long after the previous one's that finds the previous save finished, so restart recovery re-ingests at most this much of the stream plus what ingest covered during one save. Checkpoint segments rotate independently of -compact-mb")
	fs.IntVar(&c.ResumeRing, "resume-ring", 4096, "recent events retained for SSE Last-Event-ID resume")
	fs.StringVar(&c.ProbeBackend, "probe-backend", "", "active-measurement backend: sim, sim-fault (latency/loss-injected soak), or empty to disable probing; requires -synthetic")
	fs.IntVar(&c.ProbeBudget, "probe-budget", 256, "probes allowed per sliding one-hour window")
	fs.StringVar(&c.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this host:port (own listener, never the API's); empty disables profiling")
	logFormat := fs.String("log-format", logFormatText, "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log severity: debug, info, warn or error")
	fs.IntVar(&c.SlowBinMS, "slow-bin-ms", 0, "log a structured per-stage report for any bin close slower than this many milliseconds; 0 disables")
	fs.BoolVar(&c.Trace, "trace", true, "record detection provenance traces, served at /v1/outages/{id}/trace; a data dir is bound to this setting like it is to the detection config")
	fs.DurationVar(&c.FeedSilence, "feed-silence", 30*time.Minute, "stream time after which a silent collector or peer session is flagged degraded (feed-health watchdog, /v1/health/feeds); 0 disables. A data dir is bound to this setting like it is to the detection config")
	fs.Float64Var(&c.FeedFloor, "feed-floor", 0, "feed coverage ratio (live/known peer sessions) below which /healthz reports 503; 0 disables, requires -feed-silence > 0")
	fs.IntVar(&c.ReadCache, "read-cache", 4096, "decoded history entries cached in memory per type when paging /v1/outages and /v1/incidents off snapshot segments (with -data-dir)")
	if err := fs.Parse(args); err != nil {
		return c, fmt.Errorf("%w: %w", errUsage, err)
	}
	if *logFormat != logFormatText && *logFormat != logFormatJSON {
		return c, fmt.Errorf("-log-format must be %q or %q, got %q", logFormatText, logFormatJSON, *logFormat)
	}
	if _, ok := logLevels[*logLevel]; !ok {
		return c, fmt.Errorf("-log-level must be one of debug, info, warn, error; got %q", *logLevel)
	}
	c.Logger = newLogger(os.Stderr, *logFormat, *logLevel)
	return c, nil
}

// Structured-logging flag values: -log-format selects the handler (text
// for humans, json for log shippers), -log-level the minimum severity.
const (
	logFormatText = "text"
	logFormatJSON = "json"
)

// logLevels maps -log-level values to slog levels.
var logLevels = map[string]slog.Level{
	"debug": slog.LevelDebug,
	"info":  slog.LevelInfo,
	"warn":  slog.LevelWarn,
	"error": slog.LevelError,
}

// newLogger builds the daemon's root logger from validated flag values.
func newLogger(w io.Writer, format, level string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: logLevels[level]}
	if format == logFormatJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
