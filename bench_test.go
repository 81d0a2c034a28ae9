package kepler_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation: run `go test -bench=. -benchmem` at the module root. Each
// BenchmarkFigure*/BenchmarkTable* target rebuilds one artifact per
// iteration over the shared historical or case-study environment (built
// once, like the paper's archived BGP corpus) and reports rows/series via
// b.Log on the first iteration. Component micro-benchmarks at the bottom
// measure the hot paths of the pipeline itself.

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	kepler "kepler"
	"kepler/internal/bgp"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/experiments"
	"kepler/internal/geo"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/probe"
	"kepler/internal/routing"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

func histEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.Historical()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func amsCase(b *testing.B) *experiments.CaseStudy {
	b.Helper()
	cs, err := experiments.AMSIXCase()
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

func lonCase(b *testing.B) *experiments.CaseStudy {
	b.Helper()
	cs, err := experiments.LondonCase()
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// logOnce prints the regenerated artifact on the first iteration only.
func logOnce(b *testing.B, i int, render func() string) {
	if i == 0 {
		b.Log("\n" + render())
	}
}

// BenchmarkFigure1 regenerates the detected-vs-reported outage timeline.
func BenchmarkFigure1(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure3 regenerates the community-usage growth series.
func BenchmarkFigure3(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure5 regenerates the geographic spread of trackable
// infrastructure.
func BenchmarkFigure5(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkTable1 regenerates the facility-coverage table.
func BenchmarkTable1(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure7a regenerates the threshold-sensitivity sweep (this one
// re-runs detection per threshold and is the most expensive target).
func BenchmarkFigure7a(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7a(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure7b regenerates the facility-trackability scatter.
func BenchmarkFigure7b(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7b(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure7c regenerates the monthly community-coverage fractions.
func BenchmarkFigure7c(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7c(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure8a regenerates the ground-truth mapping validation.
func BenchmarkFigure8a(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8a(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure8b regenerates the outage-duration CDFs.
func BenchmarkFigure8b(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8b(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure8c regenerates the AMS-IX case study granularity series.
func BenchmarkFigure8c(b *testing.B) {
	cs := amsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8c(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure9a regenerates the London two-outage granularity series.
func BenchmarkFigure9a(b *testing.B) {
	cs := lonCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9a(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure9b regenerates the per-facility affected-path series.
func BenchmarkFigure9b(b *testing.B) {
	cs := lonCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9b(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure9c regenerates the remote-impact distance distribution.
func BenchmarkFigure9c(b *testing.B) {
	cs := lonCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9c(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure10a regenerates the BGP convergence curve.
func BenchmarkFigure10a(b *testing.B) {
	cs := amsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10a(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure10b regenerates the traceroute convergence curve.
func BenchmarkFigure10b(b *testing.B) {
	cs := amsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10b(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure10c regenerates the RTT impact distributions.
func BenchmarkFigure10c(b *testing.B) {
	cs := amsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10c(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkFigure10d regenerates the remote-IXP traffic series.
func BenchmarkFigure10d(b *testing.B) {
	cs := amsCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10d(cs)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkDictionaryStats regenerates the Section 3.2 dictionary numbers
// and attrition comparison.
func BenchmarkDictionaryStats(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.DictionaryStats(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkValidation regenerates the Section 5.3 TP/FP/FN accounting.
func BenchmarkValidation(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Validation(env)
		logOnce(b, i, r.Render)
	}
}

// BenchmarkSummaryStats regenerates the Section 6.1 headline statistics.
func BenchmarkSummaryStats(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Summary(env)
		logOnce(b, i, r.Render)
	}
}

// --- ablation benches (DESIGN.md design decisions) ---

// BenchmarkAblationThresholds sweeps the Tfail knob, the core calibration
// the paper's Figure 7a justifies.
func BenchmarkAblationThresholds(b *testing.B) {
	env := histEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure7a(env)
	}
}

// BenchmarkAblationPerASGrouping compares detection with the paper's
// per-AS signal grouping against aggregate-only thresholding (the
// Section 4.2 design decision): the aggregate variant misses partial
// outages masked by large ASes.
func BenchmarkAblationPerASGrouping(b *testing.B) {
	env := histEnv(b)
	records := env.Res.Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grouped := kepler.DefaultConfig()
		aggregate := kepler.DefaultConfig()
		aggregate.DisablePerASGrouping = true
		og, _ := env.Stack.Run(records, grouped, nil)
		oa, _ := env.Stack.Run(records, aggregate, nil)
		if i == 0 {
			b.Logf("per-AS grouping: %d outages; aggregate-only: %d outages (grouping must not lose detections)",
				len(og), len(oa))
		}
		if len(og) < len(oa) {
			b.Fatalf("grouping lost detections: %d < %d", len(og), len(oa))
		}
	}
}

// --- component micro-benchmarks ---

// BenchmarkUpdateCodec measures the BGP UPDATE wire codec round trip.
func BenchmarkUpdateCodec(b *testing.B) {
	u := &bgp.Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("184.84.242.0/24")},
		Attrs: bgp.Attributes{
			ASPath:  bgp.Path{13030, 3356, 20940},
			NextHop: netip.MustParseAddr("192.0.2.1"),
			Communities: bgp.Communities{
				bgp.MakeCommunity(13030, 51904),
				bgp.MakeCommunity(13030, 4006),
			},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := bgp.MarshalUpdate(u)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := bgp.UnmarshalUpdate(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteComputation measures one per-origin valley-free table
// computation over the default world.
func BenchmarkRouteComputation(b *testing.B) {
	w, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng := routing.New(w)
	origin := w.ASes[len(w.ASes)/2].ASN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.ComputeOrigin(origin, nil)
		if t.Size() == 0 {
			b.Fatal("no routes")
		}
	}
}

// BenchmarkDetectorThroughput measures raw record-processing throughput of
// the detection pipeline over the historical archive.
func BenchmarkDetectorThroughput(b *testing.B) {
	env := histEnv(b)
	records := env.Res.Records
	if len(records) > 100000 {
		records = records[:100000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := env.Stack.NewDetector(kepler.DefaultConfig())
		for _, rec := range records {
			det.Process(rec)
		}
		det.Flush(records[len(records)-1].Time)
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkEngineIngest measures multi-core ingestion throughput of the
// sharded engine over the historical archive, sweeping the shard count.
// records/sec is the headline metric; shards=1 approximates the
// sequential detector plus fan-out overhead, higher shard counts spread
// the per-path work (community annotation, baseline maintenance) across
// cores with the investigator synchronized at bin boundaries.
func BenchmarkEngineIngest(b *testing.B) {
	env := histEnv(b)
	records := env.Res.Records
	if len(records) > 100000 {
		records = records[:100000]
	}
	last := records[len(records)-1].Time
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := env.Stack.NewEngine(kepler.DefaultConfig(), shards)
				for _, rec := range records {
					eng.Process(rec)
				}
				eng.Flush(last)
				eng.Close()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(records)*b.N)/secs, "records/sec")
			}
		})
	}
}

// BenchmarkRIBBootstrap measures the cold-start bulk load: the historical
// archive's leading table dump fed through Engine.BootstrapRIB, whose
// large per-shard batches let every shard worker build its partition of
// the path tables concurrently instead of trickling the dump through the
// per-record streaming path. records/sec is the headline metric; the
// spread across shard counts is the bootstrap parallelism.
func BenchmarkRIBBootstrap(b *testing.B) {
	env := histEnv(b)
	records := env.Res.Records
	n := 0
	for n < len(records) && records[n].Kind == mrt.KindRIB {
		n++
	}
	rib := records[:n]
	if len(rib) == 0 {
		b.Fatal("historical archive has no leading table dump")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := env.Stack.NewEngine(kepler.DefaultConfig(), shards)
				if _, err := eng.BootstrapRIB(rib); err != nil {
					b.Fatal(err)
				}
				eng.Flush(rib[len(rib)-1].Time)
				eng.Close()
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(len(rib)*b.N)/secs, "records/sec")
			}
		})
	}
}

// BenchmarkProbeScheduler measures the active-measurement subsystem's
// campaign throughput: per simulated bin it submits a burst of mixed
// facility/IXP/city campaigns against an instant backend and collects the
// verdicts at the barrier, sweeping the worker count. campaigns/sec is the
// headline metric; dedup and the verdict cache absorb part of the target
// volume exactly as they do in a live deployment.
func BenchmarkProbeScheduler(b *testing.B) {
	instant := probeBackendFunc(func(pop colo.PoP, _ time.Time) (bool, bool) {
		return pop.ID%3 != 0, true
	})
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	const binsPerOp, campaignsPerBin = 8, 16
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := probe.NewScheduler(instant, probe.Config{
					Workers: workers, Cooldown: 5 * time.Minute, CacheSize: 256,
				})
				var id uint64
				collected := 0
				for bin := 0; bin < binsPerOp; bin++ {
					at := t0.Add(time.Duration(bin) * time.Minute)
					for c := 0; c < campaignsPerBin; c++ {
						id++
						s.Submit(core.ProbeRequest{ID: id, At: at, Candidates: []colo.PoP{
							colo.FacilityPoP(colo.FacilityID(c%7 + 1)),
							colo.IXPPoP(colo.IXPID(c%3 + 1)),
							colo.CityPoP(geo.CityID(c%5 + 1)),
						}})
					}
					collected += len(s.Collect(at.Add(time.Minute)))
				}
				s.Close()
				if collected != int(id) {
					b.Fatalf("collected %d of %d campaigns", collected, id)
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N*binsPerOp*campaignsPerBin)/secs, "campaigns/sec")
			}
		})
	}
}

type probeBackendFunc func(colo.PoP, time.Time) (bool, bool)

func (f probeBackendFunc) Probe(pop colo.PoP, at time.Time) (bool, bool) { return f(pop, at) }

// BenchmarkMRTArchive measures archive serialization throughput.
func BenchmarkMRTArchive(b *testing.B) {
	env := histEnv(b)
	records := env.Res.Records
	if len(records) > 20000 {
		records = records[:20000]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countWriter
		w := mrt.NewWriter(&sink)
		for _, r := range records {
			if err := w.WriteRecord(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(sink.n)
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// stormState is the detection state keplerd checkpoints on the benchmark's
// storm-durable workload: the cmd/topogen world at seed 1 under a year-long
// outage storm (30 facility, 12 IXP, 100 link and 20 AS outages), captured
// at the last bin barrier and restored into a 2-shard engine that
// Checkpoint can be called on repeatedly.
var stormState struct {
	once  sync.Once
	err   error
	eng   *core.Engine
	enc   []byte
	stack *pipeline.Stack
	cfg   core.Config
	recs  []*mrt.Record
}

func stormCheckpoint(b *testing.B) (*core.Engine, []byte) {
	b.Helper()
	s := &stormState
	s.once.Do(func() {
		wcfg := topology.DefaultConfig()
		wcfg.Seed = 1
		w, err := topology.Generate(wcfg)
		if err != nil {
			s.err = err
			return
		}
		stack := pipeline.Build(w, 77)
		start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
		end := start.Add(365 * 24 * time.Hour)
		sched := simulate.GenerateSchedule(w, simulate.ScheduleConfig{
			Seed: 2, Start: start.Add(3 * 24 * time.Hour), End: end.Add(-24 * time.Hour),
			FacilityOutages: 30, IXPOutages: 12, LinkOutages: 100, ASOutages: 20,
			PartialFraction: 0.15, MinMembers: 6,
		})
		res, err := simulate.Render(w, sched, start, end, simulate.RenderConfig{Seed: 3, SessionResets: 2, StickyFraction: 0.05})
		if err != nil {
			s.err = err
			return
		}
		cfg := kepler.DefaultConfig()
		cfg.FeedSilence = 30 * time.Minute
		eng := stack.NewEngine(cfg, 2)
		defer eng.Close()
		eng.SetHooks(core.Hooks{BinClosed: func(time.Time) {
			c, err := eng.Checkpoint()
			if err == nil {
				s.enc, err = c.Encode()
			}
			if err != nil && s.err == nil {
				s.err = err
			}
		}})
		for _, rec := range res.Records {
			eng.Process(rec)
		}
		if s.err != nil {
			return
		}
		c, err := core.DecodeCheckpoint(s.enc)
		if err != nil {
			s.err = err
			return
		}
		s.eng = stack.NewEngine(cfg, 2)
		s.err = s.eng.RestoreFrom(c)
		s.stack, s.cfg, s.recs = stack, cfg, res.Records
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.eng, s.enc
}

var checkpointSink *core.Checkpoint

// BenchmarkCheckpointCapture measures Engine.Checkpoint over the storm
// state. paths/op and stable/op size the state.
//
//   - cold: the first capture of an engine just restored from the storm's
//     last checkpoint: every path and stable group is sorted and encoded.
//   - churn: the captures keplerd takes over the storm, one per 15 minutes
//     of stream time that a bin closes in, each after the records of its
//     interval (ingested with the timer stopped); every pass's first
//     capture, which is cold, is left out.
func BenchmarkCheckpointCapture(b *testing.B) {
	_, enc := stormCheckpoint(b)
	s := &stormState
	report := func(b *testing.B) {
		b.ReportMetric(float64(checkpointSink.NumPaths()), "paths/op")
		b.ReportMetric(float64(checkpointSink.NumStable()), "stable/op")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := core.DecodeCheckpoint(enc)
			if err != nil {
				b.Fatal(err)
			}
			eng := s.stack.NewEngine(s.cfg, 2)
			if err := eng.RestoreFrom(c); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			checkpointSink, err = eng.Checkpoint()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			eng.Close()
			b.StartTimer()
		}
		report(b)
	})
	b.Run("churn", func(b *testing.B) {
		const interval = 15 * time.Minute // keplerd's -checkpoint-interval default
		b.ReportAllocs()
		b.StopTimer()
		var stats metrics.CheckpointStats
		var dirtyPaths, dirtyStable int64
		for n := 0; n < b.N; {
			eng := s.stack.NewEngine(s.cfg, 2)
			eng.SetCheckpointStats(&stats)
			var last time.Time
			eng.SetHooks(core.Hooks{BinClosed: func(end time.Time) {
				if n == b.N || (!last.IsZero() && end.Sub(last) < interval) {
					return
				}
				first := last.IsZero()
				last = end
				if first {
					_, _ = eng.Checkpoint()
					return
				}
				b.StartTimer()
				c, err := eng.Checkpoint()
				b.StopTimer()
				if err != nil {
					b.Error(err)
				}
				checkpointSink = c
				dirtyPaths += stats.DirtyPaths.Load()
				dirtyStable += stats.DirtyStable.Load()
				n++
			}})
			for _, rec := range s.recs {
				if eng.Process(rec); n == b.N || b.Failed() {
					break
				}
			}
			eng.Close()
			if b.Failed() {
				return
			}
		}
		report(b)
		b.ReportMetric(float64(dirtyPaths)/float64(b.N), "dirty-paths/op")
		b.ReportMetric(float64(dirtyStable)/float64(b.N), "dirty-stable/op")
	})
}

// BenchmarkCheckpointEncode measures Checkpoint.Encode over the storm
// state; MB/s is over the encoded size, reported as ckpt-bytes/op.
func BenchmarkCheckpointEncode(b *testing.B) {
	eng, _ := stormCheckpoint(b)
	c, err := eng.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	var enc []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if enc, err = c.Encode(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(enc)))
	b.ReportMetric(float64(len(enc)), "ckpt-bytes/op")
}

// BenchmarkCheckpointDecode measures DecodeCheckpoint over the encoded
// storm state.
func BenchmarkCheckpointDecode(b *testing.B) {
	_, enc := stormCheckpoint(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.DecodeCheckpoint(enc)
		if err != nil {
			b.Fatal(err)
		}
		checkpointSink = c
	}
	b.ReportMetric(float64(len(enc)), "ckpt-bytes/op")
}
