// Quickstart: build a small synthetic Internet, inject one colocation
// facility outage, stream the resulting BGP updates through Kepler's
// streaming engine, and print the detected outage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"kepler"
	"kepler/internal/colo"
	"kepler/internal/metrics"
	"kepler/internal/pipeline"
	"kepler/internal/probe"
	"kepler/internal/simulate"
	"kepler/internal/topology"
)

func main() {
	// 1. A world: ASes, facilities, IXPs, and the physical links between
	// them. Everything is deterministic for a given seed.
	world, err := topology.Generate(topology.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. The Kepler stack: noisy colocation sources are merged into a map,
	// operator documentation is mined into a community dictionary, and
	// WHOIS registrations become an AS-to-organization table.
	stack := pipeline.Build(world, 77)
	fmt.Printf("dictionary: %d location communities from %d operators\n",
		stack.Dict.Len(), len(stack.Dict.CoveredASNs()))

	// 3. Pick the most trackable facility and take it down for 45 minutes,
	// five days into the scenario (past the 2-day stable-path window).
	var target colo.FacilityID
	best := 0
	for _, f := range stack.Map.Facilities() {
		if _, n := stack.Map.Trackable(f.ID, stack.Dict.Covers); n > best {
			best, target = n, f.ID
		}
	}
	fac, _ := stack.Map.Facility(target)
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(14 * 24 * time.Hour)
	outage := simulate.Event{
		Kind: simulate.EvFacility, Facility: target,
		Start:    start.Add(5 * 24 * time.Hour).Add(10 * time.Hour),
		Duration: 45 * time.Minute,
	}
	fmt.Printf("injecting: %q down %s -> %s\n",
		fac.Name, outage.Start.Format("Jan 2 15:04"), outage.End().Format("15:04"))

	res, err := simulate.Render(world, []simulate.Event{outage}, start, end,
		simulate.RenderConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %d BGP records from %d collectors\n",
		len(res.Records), len(world.Collectors))

	// 4. Stream the records through the engine: the per-path monitoring
	// state is updated record by record, and the Section 4.3 signal
	// investigation runs at each 60 s bin boundary over it, skipping bins
	// in which nothing happened. The output is byte-for-byte what the
	// reference kepler.NewDetector would emit. The data plane validates
	// suspected epicenters with targeted traceroutes, through a probe
	// scheduler: a suspected epicenter parks as a probe campaign —
	// deduplicated, prioritized (facility > IXP > city), budgeted,
	// measured by the scheduler's workers while ingestion runs on — whose
	// verdict promotes, refutes or expires it at the next bin barrier.
	cfg := kepler.DefaultConfig()
	cfg.Tracing = true // record the evidence chain behind each detection
	eng := kepler.NewEngine(cfg, stack.Dict, stack.Map, stack.Orgs)
	dp := stack.NewSimDataPlane(res)
	probeStats := &metrics.ProbeStats{}
	sched := probe.NewScheduler(dp, probe.Config{Workers: 4, Metrics: probeStats})
	defer sched.Close()
	eng.SetProber(sched)

	// Lifecycle hooks fire at bin boundaries as detection state changes —
	// the same callbacks internal/daemon bridges onto its event bus and
	// SSE stream. Here they narrate the outage in real time and collect its
	// provenance trace: with Config.Tracing on, every resolved outage is
	// followed by the evidence that produced it (keplerd serves the same
	// trace at /v1/outages/{id}/trace). Tracing never changes what is
	// detected — output is byte-for-byte identical either way.
	var traces []kepler.OutageTrace
	eng.SetHooks(kepler.Hooks{
		OutageOpened: func(s kepler.OutageStatus) {
			fmt.Printf("  [live] outage opened at %v: %d paths diverted\n", s.PoP, s.WaitingPaths)
		},
		TraceRecorded: func(tr kepler.OutageTrace) { traces = append(traces, tr) },
	})

	var outages []kepler.Outage
	for _, rec := range res.Records {
		outages = append(outages, eng.Process(rec)...)
	}
	outages = append(outages, eng.Flush(end)...)
	fmt.Printf("ingest: %v\n", eng.Stats())

	// 5. Report — including why Kepler believes it. Each trace chapter is
	// one bin's evidence: the per-AS divergence signals against their
	// stable baselines, the localization walk (candidates considered and
	// eliminated), and the data-plane verdict.
	for i, o := range outages {
		name := world.PoPName(o.PoP)
		fmt.Printf("\nDETECTED %q (%v)\n", name, o.PoP)
		fmt.Printf("  window:    %s -> %s (%s; injected 45m)\n",
			o.Start.Format("Jan 2 15:04"), o.End.Format("15:04"),
			o.Duration().Round(time.Minute))
		fmt.Printf("  confirmed: %v (data plane)\n", o.Confirmed)
		fmt.Printf("  impact:    %d ASes, %d monitored paths diverted\n",
			len(o.AffectedASes), o.DivertedPaths)
		if i < len(traces) { // trace i describes resolved outage i
			tr := traces[i]
			fmt.Printf("  evidence:  %d chapter(s)\n", len(tr.Chapters))
			for _, ch := range tr.Chapters {
				fmt.Printf("    bin %s: %d signal(s) at %v -> %s",
					ch.Bin.Format("15:04"), ch.TotalSignals, ch.SignalPoP, ch.Kind)
				for _, st := range ch.Steps {
					fmt.Printf("; %s: %s", st.Stage, st.Outcome)
				}
				if ch.Probe != nil {
					fmt.Printf("; probe: %s", ch.Probe.Outcome)
				}
				fmt.Println()
			}
		}
	}
	if len(outages) == 0 {
		fmt.Println("no outages detected — unexpected; try a different seed")
	}

	// 6. What the measurements cost: the scheduler's counters (keplerd
	// serves the same at /v1/stats and /metrics). Probe.Config.Budget caps
	// executed probes per sliding window; here it is unbounded, and the
	// worker count never changes what is detected.
	ps := probeStats.Snapshot()
	fmt.Printf("\nprobe scheduler: %d campaign(s), %d target(s), %d probe(s) executed (%d targeted traceroutes)\n",
		ps.Campaigns, ps.Targets, ps.Executed, dp.Used())

	// 7. The same pipeline runs as a long-lived service: internal/daemon wires
	// a streamed source into this engine and serves results over HTTP while
	// ingesting. With -data-dir the history is durable — kill and restart
	// the daemon and it recovers every outage it had reported, resumes SSE
	// sequence numbers, keeps pagination cursors valid, and re-parks any
	// probe campaign that was mid-flight. The engine also checkpoints its
	// full detection state every -checkpoint-interval of stream time, so a
	// restart resumes from the newest checkpoint and re-ingests at most one
	// interval of records instead of the whole archive (watch
	// store.resume_records in /v1/stats). With -probe-backend the daemon
	// runs this section's scheduler live (-synthetic mode), exposing
	// campaigns at /v1/probes and counters at /v1/stats and /metrics
	// (Prometheus text format):
	//
	//	go run ./cmd/topogen -seed 1 -days 30 -out archive.mrt
	//	go run ./cmd/keplerd -seed 1 -archive archive.mrt -data-dir data -checkpoint-interval 15m &
	//	curl localhost:8080/v1/outages/open                  # ongoing outages as JSON
	//	curl 'localhost:8080/v1/outages?limit=20'            # resolved history, page 1
	//	curl 'localhost:8080/v1/outages?after=20&limit=20'   # page 2 (see next_after)
	//	curl -N localhost:8080/v1/events                     # live SSE event stream
	//	curl localhost:8080/v1/outages/1/trace               # evidence chain behind outage 1
	//	curl localhost:8080/metrics                          # Prometheus exposition, incl.
	//	                                                     # kepler_bin_close_stage_seconds
	//	go run ./cmd/keplerd ... -log-format json -slow-bin-ms 250  # structured diagnostics
	//	kill -9 %2 && go run ./cmd/keplerd -seed 1 -archive archive.mrt -data-dir data &
	//	curl localhost:8080/v1/outages                       # history survived the kill
	//	curl localhost:8080/v1/stats                         # store.resume_records: suffix-only catch-up
	//	curl -N -H 'Last-Event-ID: 3' localhost:8080/v1/events  # replay missed events
	//	go run ./cmd/keplerd -seed 1 -synthetic -probe-backend sim -data-dir pdata &
	//	curl localhost:8080/v1/probes                        # in-flight campaigns + verdicts
	//
	// The serving tier scales past a handful of clients: an SSE relay
	// holds the single upstream bus subscription and fans events out to
	// every /v1/events client through bounded per-client queues — a
	// thousand subscribers cost ingestion exactly one — shedding the
	// newest-joined clients first under overload.
	// History pages are served straight off the store's indexed segment
	// files through a small decoded-frame cache (-read-cache), and read
	// endpoints answer If-None-Match revalidations with 304s between bin
	// closes:
	//
	//	curl -N 'localhost:8080/v1/events?kinds=outage_opened,outage_resolved' &  # client 1
	//	curl -N localhost:8080/v1/events &                   # client 2: same relay, no new
	//	                                                     # bus subscription (see /v1/stats)
	//	curl -i localhost:8080/v1/outages/open               # 200 + ETag
	//	curl -H 'If-None-Match: "<etag>"' -i localhost:8080/v1/outages/open  # 304, empty body
	//	curl localhost:8080/v1/stats                         # relay and bus counters
	fmt.Println("\nnext: run this pipeline as a daemon — see internal/daemon and cmd/keplerd (HTTP API + SSE relay fan-out, durable -data-dir with checkpointed restarts, -probe-backend)")
}
