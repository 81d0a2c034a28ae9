package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"kepler/internal/daemon"
)

// flagRow is one keplerd command line and what parseFlags followed by
// Config.Validate make of it.
type flagRow struct {
	name    string
	args    []string
	wantErr string // substring; empty means accepted
}

func args(s string) []string { return strings.Fields(s) }

// flagTable holds every command-line check, keyed by the test that runs
// it: TestParseFlags takes whole command lines, including flags keplerd no
// longer has; each TestValidate* group pins one flag family.
var flagTable = map[string][]flagRow{
	"TestParseFlags": {
		{"archive defaults", args("-seed 2 -archive smoke.mrt"), ""},
		{"synthetic defaults", args("-seed 2 -synthetic"), ""},
		{"help", args("-h"), "flag: help requested"},
		{"negative seed", args("-seed -1 -synthetic"), "-seed must be non-negative, got -1"},
		{"zero tfail", args("-synthetic -tfail 0"), "-tfail must be in (0,1], got 0"},
		{"tfail above one", args("-synthetic -tfail 1.5"), "-tfail must be in (0,1], got 1.5"},
		{"negative speed", args("-synthetic -speed -1"), "-speed must be >= 0, got -1"},
		{"no source", args("-seed 2"), "one of -archive or -synthetic is required"},
		{"both sources", args("-archive a.mrt -synthetic"), "-archive and -synthetic are mutually exclusive"},
		{"zero compact-mb", args("-synthetic -compact-mb 0"), "-compact-mb must be positive, got 0"},
		{"negative resume-ring", args("-synthetic -resume-ring -1"), "-resume-ring must be non-negative, got -1"},
		{"zero resume-ring", args("-synthetic -resume-ring 0"), ""},
		{"zero sse-buffer", args("-synthetic -sse-buffer 0"), "-sse-buffer must be positive, got 0"},
		{"negative sse-buffer", args("-synthetic -sse-buffer -1"), "-sse-buffer must be positive, got -1"},
		{"zero shutdown-timeout", args("-synthetic -shutdown-timeout 0"), ""},
		{"negative shutdown-timeout", args("-synthetic -shutdown-timeout -1s"), "-shutdown-timeout must be non-negative, got -1s"},
		// Probing, checkpoints, profiling, logging; removed flags.
		{"bogus probe backend", args("-seed 2 -synthetic -probe-backend bogus"), "-probe-backend must be one of"},
		{"zero probe budget", args("-seed 2 -synthetic -probe-backend sim -probe-budget 0"), "-probe-budget must be positive"},
		{"probe backend without synthetic", args("-seed 2 -archive nope.mrt -probe-backend sim"), "requires -synthetic"},
		{"zero checkpoint interval", args("-seed 2 -synthetic -checkpoint-interval 0"), "-checkpoint-interval must be positive"},
		{"negative checkpoint interval", args("-seed 2 -synthetic -checkpoint-interval -5m"), "-checkpoint-interval must be positive"},
		{"bare-port pprof addr", args("-seed 2 -synthetic -pprof-addr 6060"), "-pprof-addr must be host:port"},
		{"pprof addr on listen", args("-seed 2 -synthetic -listen 127.0.0.1:8080 -pprof-addr 127.0.0.1:8080"), "collides with -listen"},
		{"removed invest-workers", args("-seed 2 -synthetic -invest-workers 2"), "flag provided but not defined: -invest-workers"},
		{"removed relay", args("-seed 2 -synthetic -relay=false"), "flag provided but not defined: -relay"},
		{"removed shards", args("-seed 2 -synthetic -shards 2"), "flag provided but not defined: -shards"},
		{"bogus log format", args("-seed 2 -synthetic -log-format yaml"), "-log-format must be"},
		{"bogus log level", args("-seed 2 -synthetic -log-level verbose"), "-log-level must be one of"},
		{"negative slow-bin threshold", args("-seed 2 -synthetic -slow-bin-ms -1"), "-slow-bin-ms must be non-negative"},
		// The feed watchdog and the read cache.
		{"negative feed silence", args("-seed 2 -synthetic -feed-silence -1m"), "-feed-silence must be non-negative"},
		{"feed floor without watchdog", args("-seed 2 -synthetic -feed-silence 0 -feed-floor 0.5"), "-feed-floor requires -feed-silence"},
		{"zero read cache", args("-seed 2 -synthetic -read-cache 0"), "-read-cache must be positive"},
	},
	"TestValidateCheckpointFlags": {
		{"default", args("-synthetic -checkpoint-interval 15m"), ""},
		{"one bin", args("-synthetic -checkpoint-interval 1m"), ""},
		{"zero", args("-synthetic -checkpoint-interval 0s"), "-checkpoint-interval must be positive, got 0s"},
		{"negative", args("-synthetic -checkpoint-interval -1h"), "-checkpoint-interval must be positive, got -1h0m0s"},
	},
	"TestValidateFeedFlags": {
		{"disabled", args("-synthetic -feed-silence 0 -feed-floor 0"), ""},
		{"watchdog only", args("-synthetic -feed-silence 30m -feed-floor 0"), ""},
		{"watchdog with floor", args("-synthetic -feed-silence 30m -feed-floor 0.5"), ""},
		{"floor of one", args("-synthetic -feed-silence 1m -feed-floor 1"), ""},
		{"negative silence", args("-synthetic -feed-silence -1s -feed-floor 0"), "-feed-silence must be non-negative, got -1s"},
		{"negative floor", args("-synthetic -feed-silence 1m -feed-floor=-0.1"), "-feed-floor must be in [0,1], got -0.1"},
		{"floor above one", args("-synthetic -feed-silence 1m -feed-floor 1.1"), "-feed-floor must be in [0,1], got 1.1"},
		{"floor without watchdog", args("-synthetic -feed-silence 0 -feed-floor 0.5"), "-feed-floor requires -feed-silence > 0"},
	},
	"TestValidateLogFlags": {
		{"text info", args("-synthetic -log-format text -log-level info"), ""},
		{"json debug", args("-synthetic -log-format json -log-level debug"), ""},
		{"text warn", args("-synthetic -log-format text -log-level warn"), ""},
		{"json error", args("-synthetic -log-format json -log-level error"), ""},
		{"xml", args("-synthetic -log-format xml -log-level info"), `-log-format must be "text" or "json", got "xml"`},
		{"empty format", args("-synthetic -log-format= -log-level info"), `-log-format must be "text" or "json", got ""`},
		{"verbose", args("-synthetic -log-format text -log-level verbose"), `-log-level must be one of debug, info, warn, error; got "verbose"`},
		// Case-sensitive, like every other enum flag.
		{"INFO", args("-synthetic -log-format text -log-level INFO"), `got "INFO"`},
		{"empty level", args("-synthetic -log-format text -log-level="), `-log-level must be one of debug, info, warn, error; got ""`},
	},
	"TestValidatePprofFlags": {
		{"disabled", args("-synthetic -pprof-addr= -listen 127.0.0.1:8080"), ""},
		{"loopback", args("-synthetic -pprof-addr 127.0.0.1:6060 -listen 127.0.0.1:8080"), ""},
		{"ephemeral port", args("-synthetic -pprof-addr 127.0.0.1:0 -listen 127.0.0.1:8080"), ""},
		{"wildcard host", args("-synthetic -pprof-addr :6060 -listen 127.0.0.1:8080"), ""},
		{"not host:port", args("-synthetic -pprof-addr 6060 -listen 127.0.0.1:8080"), "-pprof-addr must be host:port"},
		{"missing port", args("-synthetic -pprof-addr 127.0.0.1: -listen 127.0.0.1:8080"), "-pprof-addr must name a port"},
		{"same as listen", args("-synthetic -pprof-addr 127.0.0.1:8080 -listen 127.0.0.1:8080"), "collides with -listen"},
		{"wildcard same port as listen", args("-synthetic -pprof-addr :8080 -listen :8080"), "collides with -listen"},
	},
	"TestValidateProbeFlags": {
		{"disabled", args("-archive a.mrt -probe-backend= -probe-budget 256"), ""},
		{"sim with synthetic", args("-synthetic -probe-backend sim -probe-budget 256"), ""},
		{"sim-fault with synthetic", args("-synthetic -probe-backend sim-fault -probe-budget 1"), ""},
		{"unknown backend", args("-synthetic -probe-backend atlas -probe-budget 256"), `-probe-backend must be one of "sim", "sim-fault" or empty, got "atlas"`},
		{"zero budget", args("-synthetic -probe-backend sim -probe-budget 0"), "-probe-budget must be positive, got 0"},
		{"negative budget", args("-archive a.mrt -probe-backend= -probe-budget -5"), "-probe-budget must be positive, got -5"},
		{"sim without synthetic", args("-archive a.mrt -probe-backend sim -probe-budget 256"), `-probe-backend "sim" requires -synthetic`},
	},
	"TestValidateServeFlags": {
		{"defaults", args("-synthetic -read-cache 4096"), ""},
		{"small cache", args("-synthetic -read-cache 1"), ""},
		{"zero cache", args("-synthetic -read-cache 0"), "-read-cache must be positive, got 0"},
		{"negative cache", args("-synthetic -read-cache -5"), "-read-cache must be positive, got -5"},
		{"absurd cache", args("-synthetic -read-cache 1073741824"), "-read-cache must be at most"},
	},
	"TestValidateSlowBinFlag": {
		{"disabled", args("-synthetic -slow-bin-ms 0"), ""},
		{"250ms", args("-synthetic -slow-bin-ms 250"), ""},
		{"negative", args("-synthetic -slow-bin-ms -1"), "-slow-bin-ms must be non-negative"},
	},
}

func TestParseFlags(t *testing.T)              { runFlagTable(t) }
func TestValidateCheckpointFlags(t *testing.T) { runFlagTable(t) }
func TestValidateFeedFlags(t *testing.T)       { runFlagTable(t) }
func TestValidateLogFlags(t *testing.T)        { runFlagTable(t) }
func TestValidatePprofFlags(t *testing.T)      { runFlagTable(t) }
func TestValidateProbeFlags(t *testing.T)      { runFlagTable(t) }
func TestValidateServeFlags(t *testing.T)      { runFlagTable(t) }
func TestValidateSlowBinFlag(t *testing.T)     { runFlagTable(t) }

// runFlagTable runs the rows flagTable keeps under the calling test's name.
func runFlagTable(t *testing.T) {
	rows := flagTable[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("flagTable has no rows for %s", t.Name())
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c, err := parseFlags(row.args)
			if err == nil {
				err = c.Validate()
			}
			if row.wantErr == "" {
				if err != nil {
					t.Fatalf("%q: unexpected error: %v", row.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), row.wantErr) {
				t.Fatalf("%q: error = %v, want substring %q", row.args, err, row.wantErr)
			}
		})
	}
}

// TestParseFlagsDefaults pins what an otherwise empty command line
// configures: the defaults keplerd -h lists.
func TestParseFlagsDefaults(t *testing.T) {
	c, err := parseFlags(args("-archive a.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Logger == nil {
		t.Fatal("no logger built")
	}
	c.Logger = nil
	want := daemon.Config{
		Seed: 1, Archive: "a.mrt", Listen: "127.0.0.1:8080",
		Tfail: 0.10, ReportUnresolved: true, Trace: true,
		FeedSilence: 30 * time.Minute,
		SSEBuffer:   256, ShutdownTimeout: 10 * time.Second, ResumeRing: 4096, ReadCache: 4096,
		CompactMB: 8, CheckpointInterval: 15 * time.Minute, ProbeBudget: 256,
	}
	if c != want {
		t.Fatalf("defaults:\n got  %+v\n want %+v", c, want)
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := newLogger(&buf, "text", "warn")
	lg.Info("hidden")
	lg.Warn("visible")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line leaked past -log-level warn: %q", out)
	}
	if !strings.Contains(out, "visible") {
		t.Errorf("warn line missing: %q", out)
	}
}

func TestNewLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := newLogger(&buf, "json", "info")
	lg.Info("outage resolved", "pop", "facility:7", "paths", 12)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("-log-format json produced non-JSON output %q: %v", buf.String(), err)
	}
	if line["msg"] != "outage resolved" || line["pop"] != "facility:7" {
		t.Errorf("json line = %v", line)
	}
}
