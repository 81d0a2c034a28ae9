package daemon

import (
	"fmt"
	"log/slog"
	"net"
	"time"
)

// Probe backend names accepted by Config.ProbeBackend.
const (
	probeBackendNone     = ""
	probeBackendSim      = "sim"
	probeBackendSimFault = "sim-fault"
)

// Config is one daemon's settings. Every field but Logger and Notify is
// the keplerd flag of the same name; cmd/keplerd holds the help texts and
// the defaults, and Validate the rules.
type Config struct {
	Seed      int64   // -seed: world seed the archive was generated with
	Archive   string  // -archive: MRT-lite archive to replay
	Synthetic bool    // -synthetic: stream rendered scenario windows instead
	Speed     float64 // -speed: replay speed multiplier; 0 is maximum speed
	Listen    string  // -listen: HTTP API address

	Tfail            float64       // -tfail: outage signal threshold
	ReportUnresolved bool          // -report-unresolved
	Trace            bool          // -trace: record provenance traces
	FeedSilence      time.Duration // -feed-silence; 0 disables the watchdog
	FeedFloor        float64       // -feed-floor; 0 disables the /healthz floor

	SSEBuffer       int           // -sse-buffer: per-client SSE queue
	ShutdownTimeout time.Duration // -shutdown-timeout: graceful HTTP budget
	ResumeRing      int           // -resume-ring: events kept for Last-Event-ID
	ReadCache       int           // -read-cache: decoded entries per history type

	DataDir   string // -data-dir; empty keeps history in memory only
	CompactMB int64  // -compact-mb
	// CheckpointInterval (-checkpoint-interval) is stream time, not wall
	// time, and a floor on the spacing of checkpoints, not a schedule: see
	// the package doc and store.CheckpointSaver for when one is taken.
	// Without DataDir it is ignored. Checkpoint segments rotate on their own
	// (the newest two are kept) and compaction never touches them.
	CheckpointInterval time.Duration

	ProbeBackend string // -probe-backend: sim, sim-fault or empty
	ProbeBudget  int    // -probe-budget: probes per sliding hour
	PprofAddr    string // -pprof-addr; empty disables profiling
	SlowBinMS    int    // -slow-bin-ms; 0 disables slow-bin reports

	// Logger is the root logger; every component logs through a child of
	// it. Nil discards.
	Logger *slog.Logger
	// Notify, if set, is told when the daemon serves and when its source
	// drains.
	Notify *Notify
}

// Notify reports the two facts a supervisor otherwise reads off the log:
// Serving gets the bound API address ("http://host:port") right after the
// "serving" line, Drained the records ingested right after "source
// drained". Either may be nil. Both run on Run's goroutine: a Serving that
// blocks holds ingest before its first record.
type Notify struct {
	Serving func(addr string)
	Drained func(records int)
}

// Validate checks the configuration before any world is generated. Each
// error names the flag, the rejected value and the rule.
func (c Config) Validate() error {
	if c.Seed < 0 {
		return fmt.Errorf("-seed must be non-negative, got %d (a world cannot be generated from a negative seed)", c.Seed)
	}
	if c.Tfail <= 0 || c.Tfail > 1 {
		return fmt.Errorf("-tfail must be in (0,1], got %v (it is the fraction of an AS's stable paths that must divert)", c.Tfail)
	}
	if c.Speed < 0 {
		return fmt.Errorf("-speed must be >= 0, got %v (0 replays at maximum speed)", c.Speed)
	}
	if c.Archive == "" && !c.Synthetic {
		return fmt.Errorf("one of -archive or -synthetic is required")
	}
	if c.Archive != "" && c.Synthetic {
		return fmt.Errorf("-archive and -synthetic are mutually exclusive")
	}
	if c.CompactMB <= 0 {
		return fmt.Errorf("-compact-mb must be positive, got %d", c.CompactMB)
	}
	if c.CheckpointInterval <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive, got %v (least stream time between engine checkpoints; restart recovery re-ingests at most one interval of stream plus what one checkpoint save took)", c.CheckpointInterval)
	}
	if c.ResumeRing < 0 {
		return fmt.Errorf("-resume-ring must be non-negative, got %d (0 disables resume)", c.ResumeRing)
	}
	switch c.ProbeBackend {
	case probeBackendNone, probeBackendSim, probeBackendSimFault:
	default:
		return fmt.Errorf("-probe-backend must be one of %q, %q or empty, got %q",
			probeBackendSim, probeBackendSimFault, c.ProbeBackend)
	}
	if c.ProbeBudget <= 0 {
		return fmt.Errorf("-probe-budget must be positive, got %d (it caps probes per sliding window; disable probing by leaving -probe-backend empty)", c.ProbeBudget)
	}
	if c.ProbeBackend != probeBackendNone && !c.Synthetic {
		return fmt.Errorf("-probe-backend %q requires -synthetic: the simulated measurement substrate is rebuilt from the rendered scenario windows, which an archive replay does not carry", c.ProbeBackend)
	}
	if err := validatePprof(c.PprofAddr, c.Listen); err != nil {
		return err
	}
	if c.SlowBinMS < 0 {
		return fmt.Errorf("-slow-bin-ms must be non-negative, got %d (0 disables slow-bin reports)", c.SlowBinMS)
	}
	// The watchdog runs on stream time; the floor gates /healthz on the
	// coverage only the watchdog measures.
	if c.FeedSilence < 0 {
		return fmt.Errorf("-feed-silence must be non-negative, got %v (0 disables the feed watchdog)", c.FeedSilence)
	}
	if c.FeedFloor < 0 || c.FeedFloor > 1 {
		return fmt.Errorf("-feed-floor must be in [0,1], got %v (it is the live/known session ratio below which /healthz degrades)", c.FeedFloor)
	}
	if c.FeedFloor > 0 && c.FeedSilence == 0 {
		return fmt.Errorf("-feed-floor requires -feed-silence > 0 (coverage is undefined without the watchdog)")
	}
	// The read cache is the only bound between a deep page and a disk read
	// per entry.
	if c.ReadCache <= 0 {
		return fmt.Errorf("-read-cache must be positive, got %d (entries of decoded history kept in memory for segment-backed reads)", c.ReadCache)
	}
	if c.ReadCache > 1<<24 {
		return fmt.Errorf("-read-cache must be at most %d, got %d (a larger cache than 16Mi entries defeats the point of paging history off disk)", 1<<24, c.ReadCache)
	}
	if c.SSEBuffer <= 0 {
		return fmt.Errorf("-sse-buffer must be positive, got %d (events queued per SSE client before it loses them)", c.SSEBuffer)
	}
	if c.ShutdownTimeout < 0 {
		return fmt.Errorf("-shutdown-timeout must be non-negative, got %v (0 closes open connections at once)", c.ShutdownTimeout)
	}
	return nil
}

// validatePprof checks -pprof-addr: empty disables profiling, and when
// enabled it must bind a listener of its own so the debug surface never
// shares a port with the public API.
func validatePprof(addr, listen string) error {
	if addr == "" {
		return nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof-addr must be host:port, got %q: %v (profiling is served on its own listener; leave it empty to disable)", addr, err)
	}
	if port == "" {
		return fmt.Errorf("-pprof-addr must name a port, got %q (\":0\" picks a free one)", addr)
	}
	if addr == listen || (host == "" && ":"+port == listen) {
		return fmt.Errorf("-pprof-addr %q collides with -listen %q: the debug endpoints must not share the public API listener", addr, listen)
	}
	return nil
}
