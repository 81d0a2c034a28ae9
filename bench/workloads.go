package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kepler/internal/core"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

// workload is one input shape plus the daemon flags and client mix it is
// run under. All three go through the same lifecycle (ingest to drain,
// restart, serve reads) so every end-to-end metric has a meaning on every
// workload; what differs is which layers the input makes do the work, and
// how the measured seconds are split between the phases.
type workload struct {
	Name string
	Why  string

	// Archive shape: a Days-long render over the seeded world with the
	// given outage mix; RIBDump > 0 inserts a full table dump that often.
	Days                   int
	RIBDump                time.Duration
	Fac, IXP, Link, ASOuts int

	// Durable runs keplerd with -data-dir and -compact-mb 1. ReadCacheDiv
	// > 0 additionally sets -read-cache to incidents/ReadCacheDiv, making
	// the sealed history that many times the cache.
	Durable      bool
	ReadCacheDiv int

	// RSSOfServing takes peak_rss_mb from the recovered instance at the end
	// of the read phase rather than from the ingesting instances at drain:
	// the memory of the daemon the workload is about.
	RSSOfServing bool

	// OpenLoopDuringIngest adds the 100 req/s poller beside the SSE client
	// while the archive is being ingested.
	OpenLoopDuringIngest bool

	// Shares of -seconds given to each phase. A durable workload always
	// runs at least one ingest pass (it has to populate the data dir),
	// whatever IngestShare says.
	IngestShare, RestartShare, ReadShare float64
	MinRestarts                          int
}

var workloads = []workload{
	{
		Name: "rib-backfill",
		Why:  "memory mode, a year of full RIB dumps every 48 h (>99% KindRIB, few bin closes): decode, fan-out and shard apply do the work; store and bin-close changes must show no change",
		Days: 365, RIBDump: 48 * time.Hour, Fac: 3, IXP: 1, Link: 10, ASOuts: 2,
		IngestShare: 0.7, ReadShare: 0.3,
	},
	{
		Name: "storm-durable",
		Why:  "-data-dir, a sparse year-long outage storm, a 100 req/s open-loop reader beside ingest: bin close, hooks, bus, WAL, checkpoints, compaction and snapshots do the work, decode almost none",
		Days: 365, Fac: 30, IXP: 12, Link: 100, ASOuts: 20,
		Durable: true, OpenLoopDuringIngest: true,
		IngestShare: 0.6, RestartShare: 0.15, ReadShare: 0.25, MinRestarts: 15,
	},
	{
		Name: "restart-serve",
		Why:  "the storm data dir is recovered and paged: SIGKILL/restart cycles, then closed-loop deep-cursor reads over a history 10x the read cache; core and decode changes must show no change",
		Days: 365, Fac: 30, IXP: 12, Link: 100, ASOuts: 20,
		Durable: true, ReadCacheDiv: 10, RSSOfServing: true,
		IngestShare: 0, RestartShare: 0.3, ReadShare: 0.5, MinRestarts: 15,
	},
}

// shrunkTo returns the workload over a days-long archive with the outage
// mix scaled down in proportion, for smoke tests: the work of a storm
// archive is set by how many outages it holds, not by its length.
func (wl workload) shrunkTo(days int) workload {
	scale := func(n int) int { return max(1, n*days/wl.Days) }
	wl.Fac, wl.IXP, wl.Link, wl.ASOuts = scale(wl.Fac), scale(wl.IXP), scale(wl.Link), scale(wl.ASOuts)
	wl.Days = days
	return wl
}

// worldSeed fixes the generated world and the outage schedule, and is what
// every keplerd is started with. -seed does not redraw them: with the world
// redrawn per seed the amount of work itself moves by tens of percent
// (seeds 1-6 gave 40k-68k storm records, 542-863 closed bins), and the
// spread across seeds would measure the generator, not keplerd. -seed
// drives what differs between two observations of one deployment: update
// arrival jitter, which restored paths stick, where the collector session
// resets fall, and the clients' request mix.
const worldSeed = 1

// keplerdConfig is the detection config cmd/keplerd builds from its
// default flags; the reference detector must run under the same one.
func keplerdConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tfail = 0.10
	cfg.ReportUnresolved = true
	cfg.Tracing = true
	cfg.FeedSilence = 30 * time.Minute
	return cfg
}

// input is one workload's rendered input and everything derived from it.
type input struct {
	Stack   *pipeline.Stack
	Records []*mrt.Record
	Archive string // path of the MRT file
	Bytes   int64
	RIB     int // KindRIB records
	Ref     reference
}

// buildStack rebuilds exactly what `keplerd -seed <worldSeed>` builds at
// boot.
func buildStack() (*topology.World, *pipeline.Stack, error) {
	cfg := topology.DefaultConfig()
	cfg.Seed = worldSeed
	w, err := topology.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return w, pipeline.Build(w, 77), nil
}

// setup renders the workload's archive from the seed the way cmd/topogen
// does, writes it under dir, and computes the batch-detector reference.
// The archive write (mostly kernel time) and the reference run (one busy
// core) overlap.
func (wl workload) setup(seed int64, dir string) (*input, error) {
	w, stack, err := buildStack()
	if err != nil {
		return nil, err
	}
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(wl.Days) * 24 * time.Hour)
	sched := simulate.GenerateSchedule(w, simulate.ScheduleConfig{
		Seed:            worldSeed + 1,
		Start:           start.Add(3 * 24 * time.Hour),
		End:             end.Add(-24 * time.Hour),
		FacilityOutages: wl.Fac, IXPOutages: wl.IXP, LinkOutages: wl.Link, ASOutages: wl.ASOuts,
		PartialFraction: 0.15, MinMembers: 6,
	})
	res, err := simulate.Render(w, sched, start, end, simulate.RenderConfig{
		Seed: seed + 2, SessionResets: 2, StickyFraction: 0.05, RIBDumpInterval: wl.RIBDump,
	})
	if err != nil {
		return nil, err
	}
	in := &input{Stack: stack, Records: res.Records,
		Archive: filepath.Join(dir, wl.Name+".mrt")}
	for _, r := range in.Records {
		// The archive format keeps microseconds; give the reference run the
		// timestamps the daemon will read back, not the renderer's
		// nanoseconds.
		r.Time = time.UnixMicro(r.Time.UnixMicro()).UTC()
		if r.Kind == mrt.KindRIB {
			in.RIB++
		}
	}

	werr := make(chan error, 1)
	go func() { werr <- writeArchive(in.Archive, in.Records) }()
	in.Ref = newReference(stack.Run(in.Records, keplerdConfig(), nil))
	if err := <-werr; err != nil {
		return nil, err
	}
	st, err := os.Stat(in.Archive)
	if err != nil {
		return nil, err
	}
	in.Bytes = st.Size()
	return in, nil
}

func writeArchive(path string, recs []*mrt.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mrt.WriteAll(f, recs); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// daemonArgs are the keplerd flags of one lifetime over this input.
func (wl workload) daemonArgs(in *input, dataDir string) []string {
	args := []string{"-seed", fmt.Sprint(worldSeed), "-archive", in.Archive}
	if wl.Durable {
		args = append(args, "-data-dir", dataDir, "-compact-mb", "1")
	}
	if wl.ReadCacheDiv > 0 {
		args = append(args, "-read-cache", fmt.Sprint(max(8, in.Ref.NumInc/wl.ReadCacheDiv)))
	}
	return args
}
