package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/geo"
	"kepler/internal/metrics"
	"kepler/internal/mrt"
	"kepler/internal/pipeline"
	"kepler/internal/probe"
	"kepler/internal/server"
	"kepler/internal/store"
)

// The layer drivers call one layer's exported functions on their own, for
// the paths no end-to-end workload reaches (a thousand SSE clients, a
// hundred-thousand-event history) and for the single-threaded baselines.
// Each takes well under two seconds; together they ride along with every
// traced run.

// driveFanout measures bgpstream.Fanout alone: Add every record, Take and
// Recycle a shard's slab whenever it reaches the engine's batch size.
func driveFanout(recs []*mrt.Record) float64 {
	const shards, batch = 2, 256
	f := bgpstream.NewFanout(shards)
	t0 := time.Now()
	for _, rec := range recs {
		f.Add(rec)
		for i := 0; i < shards; i++ {
			if f.Pending(i) >= batch {
				f.Recycle(i, f.Take(i))
			}
		}
	}
	return float64(len(recs)) / time.Since(t0).Seconds()
}

// driveEngine measures the bare engine (no hooks, bus, store or server)
// at a given shard count: shards=1 is the single-threaded baseline.
func driveEngine(stack *pipeline.Stack, recs []*mrt.Record, shards int) float64 {
	eng := stack.NewEngine(keplerdConfig(), shards)
	defer eng.Close()
	t0 := time.Now()
	for _, rec := range recs {
		eng.Process(rec)
	}
	eng.Flush(recs[len(recs)-1].Time)
	return float64(len(recs)) / time.Since(t0).Seconds()
}

// syntheticEvent builds the i-th event of a plausible history: incidents
// with a bin close every tenth event, so the store flushes and compacts as
// it does behind a daemon.
func syntheticEvent(i int) events.Event {
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 6 * time.Second)
	if i%10 == 9 {
		return events.Event{Time: at, Kind: events.KindBinClosed}
	}
	return events.Event{Time: at, Kind: events.KindIncident, Incident: &core.Incident{
		Time: at, Kind: core.IncidentKind(i % 4), PoP: colo.FacilityPoP(colo.FacilityID(i%97 + 1)),
		SignalPoP: colo.FacilityPoP(colo.FacilityID(i%97 + 1)), AffectedASes: nil, Links: i % 7, Paths: i % 31,
	}}
}

// drainSubscriber empties a bus subscription until it closes.
func drainSubscriber(wg *sync.WaitGroup, ch <-chan events.Event, n *atomic.Int64) {
	defer wg.Done()
	for range ch {
		n.Add(1)
	}
}

// drivePublish measures Bus.Publish with subs drained subscribers and no
// sink: nanoseconds per publish as the ingest goroutine pays them.
func drivePublish(subs int) float64 {
	const n = 20_000
	bus := events.New(nil, events.WithRing(resumeRing))
	var wg sync.WaitGroup
	var got atomic.Int64
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go drainSubscriber(&wg, bus.Subscribe(1024).Events(), &got)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		bus.Publish(syntheticEvent(i))
	}
	el := time.Since(t0)
	bus.Close()
	wg.Wait()
	return float64(el.Nanoseconds()) / n
}

// driveRelay publishes through a Relay to `clients` in-process clients
// (no sockets) at full speed and reports deliveries per second and the
// share of client-deliveries lost to full queues or the shed budget.
func driveRelay(clients int) (perSecond, lossRatio float64) {
	n := max(2000, 200_000/clients)
	bus := events.New(nil, events.WithRing(resumeRing))
	relay := events.NewRelay(bus, events.RelayOptions{})
	var wg sync.WaitGroup
	var got atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go drainSubscriber(&wg, relay.Subscribe(256, nil).Events(), &got)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		bus.Publish(syntheticEvent(i))
	}
	bus.Close() // the relay drains what is queued upstream, then closes its clients
	wg.Wait()
	el := time.Since(t0)
	relay.Close()
	return float64(got.Load()) / el.Seconds(), 1 - float64(got.Load())/float64(n*clients)
}

// driveStoreOpen builds an n-event history through Append (compacting at
// 1 MiB like the durable workloads), closes it, and times a cold Open +
// Summary. It also returns how long the Append calls that compacted took.
func driveStoreOpen(dir string, n int) (openMS float64, compactionMS []float64, err error) {
	dir = filepath.Join(dir, fmt.Sprintf("store-%d", n))
	defer os.RemoveAll(dir)
	stats := &metrics.StoreStats{}
	st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1 << 20, Metrics: stats})
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		ev := syntheticEvent(i)
		ev.Seq = uint64(i) + 1
		before := stats.Compactions.Load()
		t0 := time.Now()
		if err := st.Append(ev); err != nil {
			st.Close()
			return 0, nil, err
		}
		if stats.Compactions.Load() > before {
			compactionMS = append(compactionMS, float64(time.Since(t0))/1e6)
		}
	}
	if err := st.Close(); err != nil {
		return 0, nil, err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1 << 20})
		if err != nil {
			return 0, nil, err
		}
		sum := st.Summary()
		opens = append(opens, float64(time.Since(t0))/1e6)
		st.Close()
		if sum.IncidentTotal != n-n/10 {
			return 0, nil, fmt.Errorf("store driver: reopened history holds %d incidents, appended %d", sum.IncidentTotal, n-n/10)
		}
	}
	return median(opens), compactionMS, nil
}

// driveSSE measures the SSE write path alone: one socket client, events
// published as fast as the handler drains them (the client queue is sized
// to the whole burst, so nothing is dropped).
func driveSSE() (float64, error) {
	const n = 5000
	bus := events.New(nil, events.WithRing(resumeRing))
	defer bus.Close()
	srv := server.New(server.Options{Bus: bus, SSEBuffer: n})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/events", nil)
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if _, err := br.ReadString('\n'); err != nil { // ": stream open": the subscription is registered
		return 0, err
	}
	t0 := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			bus.Publish(syntheticEvent(i))
		}
	}()
	for got := 0; got < n; {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, fmt.Errorf("SSE driver: stream ended after %d of %d events: %w", got, n, err)
		}
		if strings.HasPrefix(line, "id: ") {
			got++
		}
	}
	return n / time.Since(t0).Seconds(), nil
}

type instantBackend struct{}

func (instantBackend) Probe(pop colo.PoP, _ time.Time) (bool, bool) { return pop.ID%3 != 0, true }

// driveProbe is BenchmarkProbeScheduler at four workers: bursts of mixed
// campaigns against an instant backend, collected at each bin barrier.
func driveProbe() (float64, error) {
	const rounds, binsPerRound, campaignsPerBin = 200, 8, 16
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	begin := time.Now()
	for r := 0; r < rounds; r++ {
		s := probe.NewScheduler(instantBackend{}, probe.Config{Workers: 4, Cooldown: 5 * time.Minute, CacheSize: 256})
		var id uint64
		collected := 0
		for bin := 0; bin < binsPerRound; bin++ {
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
			return 0, fmt.Errorf("probe driver: collected %d of %d campaigns", collected, id)
		}
	}
	return rounds * binsPerRound * campaignsPerBin / time.Since(begin).Seconds(), nil
}

// driveBoot times what keplerd does before it can open its listener:
// generate the world and build the pipeline stack.
func driveBoot() (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := buildStack(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// runDrivers runs every layer driver and returns name → value.
func runDrivers(in *input, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	out["bgpstream.fanout_records_per_s"] = driveFanout(in.Records)
	out["core.ingest_records_per_s.shards1"] = driveEngine(in.Stack, in.Records, 1)
	out["core.ingest_records_per_s.shardsN"] = driveEngine(in.Stack, in.Records, runtime.GOMAXPROCS(0))
	out["events.publish_ns.sub1"] = drivePublish(1)
	out["events.publish_ns.sub100"] = drivePublish(100)
	for _, c := range []int{1, 100, 1000} {
		rate, loss := driveRelay(c)
		out[fmt.Sprintf("events.relay_deliveries_per_s.c%d", c)] = rate
		if c == 1000 {
			out["events.relay_loss_ratio.c1000"] = loss
		}
	}
	var compactions []float64
	for _, n := range []struct {
		label  string
		events int
	}{{"e10k", 10_000}, {"e100k", 100_000}} {
		ms, comp, err := driveStoreOpen(dir, n.events)
		if err != nil {
			return nil, err
		}
		out["store.open_ms."+n.label] = ms
		compactions = append(compactions, comp...)
	}
	out["store.compaction_cycle_ms"] = median(compactions)
	var err error
	if out["server.sse_events_per_s"], err = driveSSE(); err != nil {
		return nil, err
	}
	if out["probe.campaigns_per_s.w4"], err = driveProbe(); err != nil {
		return nil, err
	}
	if out["keplerd.boot_world_build_ms"], err = driveBoot(); err != nil {
		return nil, err
	}
	return out, nil
}
