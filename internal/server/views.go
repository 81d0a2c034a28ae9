package server

import (
	"time"

	"kepler/internal/bgp"
	"kepler/internal/bgpstream"
	"kepler/internal/colo"
	"kepler/internal/core"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

// PoPView is the JSON shape of a PoP reference.
type PoPView struct {
	Kind string `json:"kind"` // city | facility | ixp
	ID   uint32 `json:"id"`
	Ref  string `json:"ref"` // e.g. "facility:42"
	Name string `json:"name,omitempty"`
}

func (s *Server) popView(p colo.PoP) PoPView {
	v := PoPView{Kind: p.Kind.String(), ID: p.ID, Ref: p.String()}
	if s.opts.Namer != nil {
		v.Name = s.opts.Namer(p)
	}
	return v
}

// OutageView is the JSON shape of a resolved outage. ID is the outage's
// 1-based position in the resolved history — stable across restarts
// (recovery rebuilds the same order) and the ?after= pagination cursor; it
// is omitted in SSE payloads, where the frame id already carries the bus
// sequence.
type OutageView struct {
	ID               uint64    `json:"id,omitempty"`
	PoP              PoPView   `json:"pop"`
	SignalPoP        PoPView   `json:"signal_pop"`
	Start            time.Time `json:"start"`
	End              time.Time `json:"end"`
	DurationSeconds  float64   `json:"duration_seconds"`
	Confirmed        bool      `json:"confirmed"`
	DataPlaneChecked bool      `json:"data_plane_checked"`
	AffectedASes     []bgp.ASN `json:"affected_ases"`
	DivertedPaths    int       `json:"diverted_paths"`
	Merged           int       `json:"merged"`
}

func (s *Server) outageView(id uint64, o *core.Outage) OutageView {
	return OutageView{
		ID:               id,
		PoP:              s.popView(o.PoP),
		SignalPoP:        s.popView(o.SignalPoP),
		Start:            o.Start,
		End:              o.End,
		DurationSeconds:  o.Duration().Seconds(),
		Confirmed:        o.Confirmed,
		DataPlaneChecked: o.DataPlaneChecked,
		AffectedASes:     o.AffectedASes,
		DivertedPaths:    o.DivertedPaths,
		Merged:           o.Merged,
	}
}

// OpenOutageView is the JSON shape of an ongoing outage.
type OpenOutageView struct {
	PoP           PoPView   `json:"pop"`
	SignalPoPs    []PoPView `json:"signal_pops"`
	Start         time.Time `json:"start"`
	LastSignal    time.Time `json:"last_signal"`
	Confirmed     bool      `json:"confirmed"`
	AffectedASes  []bgp.ASN `json:"affected_ases"`
	WaitingPaths  int       `json:"waiting_paths"`
	ReturnedPaths int       `json:"returned_paths"`
	Merged        int       `json:"merged"`
}

func (s *Server) openView(o *core.OutageStatus) OpenOutageView {
	sigs := make([]PoPView, len(o.SignalPoPs))
	for i, p := range o.SignalPoPs {
		sigs[i] = s.popView(p)
	}
	return OpenOutageView{
		PoP:           s.popView(o.PoP),
		SignalPoPs:    sigs,
		Start:         o.Start,
		LastSignal:    o.LastSignal,
		Confirmed:     o.Confirmed,
		AffectedASes:  o.AffectedASes,
		WaitingPaths:  o.WaitingPaths,
		ReturnedPaths: o.ReturnedPaths,
		Merged:        o.Merged,
	}
}

// IncidentView is the JSON shape of a classified signal. ID is the 1-based
// position in the unfiltered incident history (the pagination cursor),
// omitted in SSE payloads.
type IncidentView struct {
	ID           uint64    `json:"id,omitempty"`
	Time         time.Time `json:"time"`
	Kind         string    `json:"kind"`
	PoP          PoPView   `json:"pop"`
	SignalPoP    PoPView   `json:"signal_pop"`
	CommonAS     bgp.ASN   `json:"common_as,omitempty"`
	AffectedASes []bgp.ASN `json:"affected_ases"`
	Links        int       `json:"links"`
	Paths        int       `json:"paths"`
}

func (s *Server) incidentView(id uint64, inc *core.Incident) IncidentView {
	return IncidentView{
		ID:           id,
		Time:         inc.Time,
		Kind:         inc.Kind.String(),
		PoP:          s.popView(inc.PoP),
		SignalPoP:    s.popView(inc.SignalPoP),
		CommonAS:     inc.CommonAS,
		AffectedASes: inc.AffectedASes,
		Links:        inc.Links,
		Paths:        inc.Paths,
	}
}

// IngestView is the JSON shape of the engine's ingestion counters.
type IngestView struct {
	Records        int64   `json:"records"`
	Ops            int64   `json:"ops"`
	Bins           int64   `json:"bins"`
	RecordsPerSec  float64 `json:"records_per_sec"`
	BarrierSeconds float64 `json:"barrier_seconds"`
	BinLagSeconds  float64 `json:"bin_lag_seconds"`
	QueueDepths    []int   `json:"queue_depths,omitempty"`
}

func ingestView(s metrics.IngestSnapshot) *IngestView {
	return &IngestView{
		Records:        s.Records,
		Ops:            s.Ops,
		Bins:           s.Bins,
		RecordsPerSec:  s.RecordsPerSec,
		BarrierSeconds: s.BarrierTime.Seconds(),
		BinLagSeconds:  s.BinLag.Seconds(),
		QueueDepths:    s.QueueDepths,
	}
}

// ServiceView is the JSON shape of the HTTP/bus counters.
type ServiceView struct {
	HTTPRequests    int64 `json:"http_requests"`
	HTTPErrors      int64 `json:"http_errors"`
	SSEConnected    int64 `json:"sse_connected"`
	SSEActive       int64 `json:"sse_active"`
	EventsPublished int64 `json:"events_published"`
	EventsDropped   int64 `json:"events_dropped"`
}

func serviceView(s metrics.ServiceSnapshot) *ServiceView {
	return &ServiceView{
		HTTPRequests:    s.HTTPRequests,
		HTTPErrors:      s.HTTPErrors,
		SSEConnected:    s.SSEConnected,
		SSEActive:       s.SSEActive,
		EventsPublished: s.EventsPublished,
		EventsDropped:   s.EventsDropped,
	}
}

// StoreView is the JSON shape of the durable-history counters.
// ResumeSeq/ResumeRecords are the bounded-recovery proof: non-zero means
// this boot restored an engine checkpoint and re-ingested only the records
// past offset ResumeRecords, not the whole stream.
type StoreView struct {
	Appends              int64 `json:"appends"`
	AppendedBytes        int64 `json:"appended_bytes"`
	Flushes              int64 `json:"flushes"`
	Compactions          int64 `json:"compactions"`
	RecoveredEvents      int64 `json:"recovered_events"`
	TornTails            int64 `json:"torn_tails"`
	TruncatedBytes       int64 `json:"truncated_bytes"`
	CheckpointSaves      int64 `json:"checkpoint_saves"`
	CheckpointBytes      int64 `json:"checkpoint_bytes"`
	CheckpointsDiscarded int64 `json:"checkpoints_discarded"`
	ResumeSeq            int64 `json:"resume_seq"`
	ResumeRecords        int64 `json:"resume_records"`
	SegmentsSealed       int64 `json:"segments_sealed"`
	IndexWrites          int64 `json:"index_writes"`
	IndexRebuilds        int64 `json:"index_rebuilds"`
	SegmentReads         int64 `json:"segment_reads"`
	ReadCacheHits        int64 `json:"read_cache_hits"`
	ReadCacheMisses      int64 `json:"read_cache_misses"`
}

func storeView(s metrics.StoreSnapshot) *StoreView {
	return &StoreView{
		Appends:              s.Appends,
		AppendedBytes:        s.AppendedBytes,
		Flushes:              s.Flushes,
		Compactions:          s.Compactions,
		RecoveredEvents:      s.RecoveredEvents,
		TornTails:            s.TornTails,
		TruncatedBytes:       s.TruncatedBytes,
		CheckpointSaves:      s.CheckpointSaves,
		CheckpointBytes:      s.CheckpointBytes,
		CheckpointsDiscarded: s.CheckpointsDiscarded,
		ResumeSeq:            s.ResumeSeq,
		ResumeRecords:        s.ResumeRecords,
		SegmentsSealed:       s.SegmentsSealed,
		IndexWrites:          s.IndexWrites,
		IndexRebuilds:        s.IndexRebuilds,
		SegmentReads:         s.SegmentReads,
		ReadCacheHits:        s.ReadCacheHits,
		ReadCacheMisses:      s.ReadCacheMisses,
	}
}

// CheckpointView is the JSON shape of the engine-checkpoint counters: what
// a checkpoint costs the ingest goroutine (the capture, and at end of
// source the wait for the save in flight), what the saver goroutine spends
// encoding and writing it, how many due checkpoints found the saver busy
// and moved to a later barrier, and whether the last capture was warm — a
// few dirty records merged into the kept image — or a cold rebuild of all
// of it.
type CheckpointView struct {
	IngestDuration  StageLatencyView `json:"ingest_duration"`
	SaveDuration    StageLatencyView `json:"save_duration"`
	Deferred        int64            `json:"deferred"`
	Captures        int64            `json:"captures"`
	ColdRebuilds    int64            `json:"cold_rebuilds"`
	LastDirtyPaths  int64            `json:"last_dirty_paths"`
	LastDirtyStable int64            `json:"last_dirty_stable"`
}

func checkpointView(s metrics.CheckpointSnapshot) *CheckpointView {
	return &CheckpointView{
		IngestDuration:  stageLatencyView(s.Ingest),
		SaveDuration:    stageLatencyView(s.Save),
		Deferred:        s.Deferred,
		Captures:        s.Captures,
		ColdRebuilds:    s.ColdRebuilds,
		LastDirtyPaths:  s.DirtyPaths,
		LastDirtyStable: s.DirtyStable,
	}
}

// PendingProbeView is the JSON shape of one in-flight probe campaign: a
// signal group parked pending data-plane corroboration.
type PendingProbeView struct {
	ID           uint64    `json:"id"`
	At           time.Time `json:"at"`
	Deadline     time.Time `json:"deadline"`
	SignalPoP    PoPView   `json:"signal_pop"`
	Epicenter    *PoPView  `json:"epicenter,omitempty"` // absent when disambiguating
	Candidates   []PoPView `json:"candidates"`
	AffectedASes []bgp.ASN `json:"affected_ases"`
	Paths        int       `json:"paths"`
}

func (s *Server) pendingView(p *core.PendingConfirmation) PendingProbeView {
	cands := make([]PoPView, len(p.Candidates))
	for i, c := range p.Candidates {
		cands[i] = s.popView(c)
	}
	v := PendingProbeView{
		ID:           p.ID,
		At:           p.At,
		Deadline:     p.Deadline,
		SignalPoP:    s.popView(p.SignalPoP),
		Candidates:   cands,
		AffectedASes: p.AffectedASes,
		Paths:        p.Paths,
	}
	if p.Epicenter.IsValid() {
		e := s.popView(p.Epicenter)
		v.Epicenter = &e
	}
	return v
}

// ProbeOutcomeView is the JSON shape of one resolved campaign.
type ProbeOutcomeView struct {
	Pending   PendingProbeView `json:"pending"`
	Located   bool             `json:"located"`
	Epicenter *PoPView         `json:"epicenter,omitempty"`
	Confirmed bool             `json:"confirmed"`
	Checked   bool             `json:"checked"`
	Expired   bool             `json:"expired"`
}

func (s *Server) probeOutcomeView(o *core.ProbeOutcome) ProbeOutcomeView {
	v := ProbeOutcomeView{
		Pending:   s.pendingView(&o.Pending),
		Located:   o.Located,
		Confirmed: o.Confirmed,
		Checked:   o.Checked,
		Expired:   o.Expired,
	}
	if o.Epicenter.IsValid() {
		e := s.popView(o.Epicenter)
		v.Epicenter = &e
	}
	return v
}

// ProbeStatsView is the JSON shape of the active-measurement counters.
type ProbeStatsView struct {
	Campaigns int64 `json:"campaigns"`
	Targets   int64 `json:"targets"`
	Executed  int64 `json:"executed"`
	CacheHits int64 `json:"cache_hits"`
	Deduped   int64 `json:"deduped"`
	Denied    int64 `json:"denied"`
	Collected int64 `json:"collected"`
	Promoted  int64 `json:"promoted"`
	Refuted   int64 `json:"refuted"`
	Unlocated int64 `json:"unlocated"`
	Expired   int64 `json:"expired"`
	Pending   int64 `json:"pending"`
}

func probeStatsView(s metrics.ProbeSnapshot) *ProbeStatsView {
	return &ProbeStatsView{
		Campaigns: s.Campaigns,
		Targets:   s.Targets,
		Executed:  s.Executed,
		CacheHits: s.CacheHits,
		Deduped:   s.Deduped,
		Denied:    s.Denied,
		Collected: s.Collected,
		Promoted:  s.Promoted,
		Refuted:   s.Refuted,
		Unlocated: s.Unlocated,
		Expired:   s.Expired,
		Pending:   s.Pending,
	}
}

// TracePathView is the JSON shape of one sampled diverted path in a trace.
type TracePathView struct {
	Vantage bgp.ASN   `json:"vantage"`
	Prefix  string    `json:"prefix"`
	Near    bgp.ASN   `json:"near"`
	Far     bgp.ASN   `json:"far"`
	OldPath []bgp.ASN `json:"old_path,omitempty"`
}

// TraceSignalView is the JSON shape of one per-AS divert signal.
type TraceSignalView struct {
	Near     bgp.ASN         `json:"near"`
	Diverted int             `json:"diverted"`
	Stable   int             `json:"stable"`
	Paths    []TracePathView `json:"paths,omitempty"`
}

// TraceStepView is the JSON shape of one localization decision.
type TraceStepView struct {
	Stage      string    `json:"stage"`
	Outcome    string    `json:"outcome"`
	Candidates []PoPView `json:"candidates,omitempty"`
	Eliminated []PoPView `json:"eliminated,omitempty"`
	Chosen     *PoPView  `json:"chosen,omitempty"`
}

// TraceFoldView is the JSON shape of a collateral-damage fold.
type TraceFoldView struct {
	Into        PoPView `json:"into"`
	SharedPaths int     `json:"shared_paths"`
	TotalPaths  int     `json:"total_paths"`
}

// TraceProbeResultView is the JSON shape of one probe verdict.
type TraceProbeResultView struct {
	Target    PoPView `json:"target"`
	Confirmed bool    `json:"confirmed"`
	HasData   bool    `json:"has_data"`
}

// TraceProbeView is the JSON shape of the probe campaign that settled (or
// re-validated) a chapter's epicenter.
type TraceProbeView struct {
	Campaign   uint64                 `json:"campaign,omitempty"`
	Outcome    string                 `json:"outcome"`
	Candidates []PoPView              `json:"candidates,omitempty"`
	Results    []TraceProbeResultView `json:"results,omitempty"`
	Epicenter  *PoPView               `json:"epicenter,omitempty"`
}

// TraceChapterView is the JSON shape of one bin's evidence for an outage.
type TraceChapterView struct {
	Bin          time.Time         `json:"bin"`
	SignalPoP    PoPView           `json:"signal_pop"`
	Kind         string            `json:"kind,omitempty"`
	Epicenter    *PoPView          `json:"epicenter,omitempty"`
	StableTotal  int               `json:"stable_total"`
	TotalSignals int               `json:"total_signals"`
	Signals      []TraceSignalView `json:"signals,omitempty"`
	Steps        []TraceStepView   `json:"steps,omitempty"`
	Fold         *TraceFoldView    `json:"fold,omitempty"`
	Probe        *TraceProbeView   `json:"probe,omitempty"`
}

// TraceView is the /v1/outages/{id}/trace response: the full evidence chain
// behind one resolved outage.
type TraceView struct {
	OutageID        uint64             `json:"outage_id,omitempty"`
	Version         int                `json:"version"`
	PoP             PoPView            `json:"pop"`
	Start           time.Time          `json:"start"`
	End             time.Time          `json:"end"`
	Merged          int                `json:"merged"`
	Chapters        []TraceChapterView `json:"chapters"`
	DroppedChapters int                `json:"dropped_chapters,omitempty"`
}

func (s *Server) popViews(ps []colo.PoP) []PoPView {
	if len(ps) == 0 {
		return nil
	}
	out := make([]PoPView, len(ps))
	for i, p := range ps {
		out[i] = s.popView(p)
	}
	return out
}

func (s *Server) optPopView(p colo.PoP) *PoPView {
	if !p.IsValid() {
		return nil
	}
	v := s.popView(p)
	return &v
}

func (s *Server) traceProbeView(p *core.TraceProbe) *TraceProbeView {
	if p == nil {
		return nil
	}
	v := &TraceProbeView{
		Campaign:   p.Campaign,
		Outcome:    p.Outcome,
		Candidates: s.popViews(p.Candidates),
		Epicenter:  s.optPopView(p.Epicenter),
	}
	for _, r := range p.Results {
		v.Results = append(v.Results, TraceProbeResultView{
			Target:    s.popView(r.Target),
			Confirmed: r.Confirmed,
			HasData:   r.HasData,
		})
	}
	return v
}

func (s *Server) traceChapterView(ch *core.TraceChapter) TraceChapterView {
	v := TraceChapterView{
		Bin:          ch.Bin,
		SignalPoP:    s.popView(ch.SignalPoP),
		Kind:         ch.Kind,
		Epicenter:    s.optPopView(ch.Epicenter),
		StableTotal:  ch.StableTotal,
		TotalSignals: ch.TotalSignals,
		Probe:        s.traceProbeView(ch.Probe),
	}
	for i := range ch.Signals {
		sig := &ch.Signals[i]
		sv := TraceSignalView{Near: sig.Near, Diverted: sig.Diverted, Stable: sig.Stable}
		for _, p := range sig.Paths {
			sv.Paths = append(sv.Paths, TracePathView{
				Vantage: p.Vantage,
				Prefix:  p.Prefix,
				Near:    p.Near,
				Far:     p.Far,
				OldPath: p.OldPath,
			})
		}
		v.Signals = append(v.Signals, sv)
	}
	for i := range ch.Steps {
		st := &ch.Steps[i]
		v.Steps = append(v.Steps, TraceStepView{
			Stage:      st.Stage,
			Outcome:    st.Outcome,
			Candidates: s.popViews(st.Candidates),
			Eliminated: s.popViews(st.Eliminated),
			Chosen:     s.optPopView(st.Chosen),
		})
	}
	if ch.Fold != nil {
		v.Fold = &TraceFoldView{
			Into:        s.popView(ch.Fold.Into),
			SharedPaths: ch.Fold.SharedPaths,
			TotalPaths:  ch.Fold.TotalPaths,
		}
	}
	return v
}

func (s *Server) traceView(id uint64, tr *core.OutageTrace) TraceView {
	v := TraceView{
		OutageID:        id,
		Version:         tr.Version,
		PoP:             s.popView(tr.PoP),
		Start:           tr.Start,
		End:             tr.End,
		Merged:          tr.Merged,
		Chapters:        []TraceChapterView{},
		DroppedChapters: tr.DroppedChapters,
	}
	for i := range tr.Chapters {
		v.Chapters = append(v.Chapters, s.traceChapterView(&tr.Chapters[i]))
	}
	return v
}

// StageLatencyView is the JSON shape of one bin-close latency histogram.
// Buckets, when present, carries the per-bucket (non-cumulative) counts
// over metrics.DurationBounds plus the +Inf overflow — cumulative counts
// are differencable across scrapes, which is how keplerload computes
// per-phase quantiles from two /v1/stats polls.
type StageLatencyView struct {
	Count       int64   `json:"count"`
	SumSeconds  float64 `json:"sum_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	Buckets     []int64 `json:"buckets,omitempty"`
}

func stageLatencyView(h metrics.HistogramSnapshot) StageLatencyView {
	return StageLatencyView{
		Count:       h.Count,
		SumSeconds:  h.Sum.Seconds(),
		MeanSeconds: h.Mean().Seconds(),
		P50Seconds:  h.Quantile(0.50).Seconds(),
		P90Seconds:  h.Quantile(0.90).Seconds(),
		P99Seconds:  h.Quantile(0.99).Seconds(),
	}
}

// stageLatencyViewWithBuckets additionally exposes the raw bucket counts.
func stageLatencyViewWithBuckets(h metrics.HistogramSnapshot) StageLatencyView {
	v := stageLatencyView(h)
	v.Buckets = h.Counts
	return v
}

// BinCloseView is the staged bin-close latency section of /v1/stats.
type BinCloseView struct {
	Total  StageLatencyView            `json:"total"`
	Stages map[string]StageLatencyView `json:"stages"`
}

func binCloseView(s metrics.BinStageSnapshot) *BinCloseView {
	v := &BinCloseView{
		Total:  stageLatencyView(s.Total),
		Stages: make(map[string]StageLatencyView, metrics.NumBinStages),
	}
	for i, name := range metrics.BinStageNames {
		v.Stages[name] = stageLatencyView(s.Stages[i])
	}
	return v
}

// FeedStatusView is the JSON shape of one collector's or peer session's
// liveness in /v1/health/feeds.
type FeedStatusView struct {
	Collector        string    `json:"collector"`
	PeerAS           bgp.ASN   `json:"peer_as,omitempty"`
	LastSeen         time.Time `json:"last_seen"`
	SilentForSeconds float64   `json:"silent_for_seconds"`
	Degraded         bool      `json:"degraded"`
}

// FeedHealthView is the /v1/health/feeds response (also embedded in
// /v1/stats). All times are stream time: the watchdog never consults the
// wall clock, so a replayed archive reports the health its feeds had then.
type FeedHealthView struct {
	AsOf            time.Time        `json:"as_of"`
	SilenceSeconds  float64          `json:"silence_seconds"`
	Coverage        float64          `json:"coverage"`
	CollectorsKnown int              `json:"collectors_known"`
	CollectorsLive  int              `json:"collectors_live"`
	SessionsKnown   int              `json:"sessions_known"`
	SessionsLive    int              `json:"sessions_live"`
	DegradedEvents  int64            `json:"degraded_events"`
	RecoveredEvents int64            `json:"recovered_events"`
	Collectors      []FeedStatusView `json:"collectors"`
	Sessions        []FeedStatusView `json:"sessions"`
}

func feedStatusViews(sts []bgpstream.FeedStatus) []FeedStatusView {
	out := make([]FeedStatusView, len(sts))
	for i, st := range sts {
		out[i] = FeedStatusView{
			Collector:        st.Collector,
			PeerAS:           st.PeerAS,
			LastSeen:         st.LastSeen,
			SilentForSeconds: st.SilentFor.Seconds(),
			Degraded:         st.Degraded,
		}
	}
	return out
}

func (s *Server) feedHealthView(f *bgpstream.FeedSnapshot) FeedHealthView {
	v := FeedHealthView{
		AsOf:            f.At,
		SilenceSeconds:  f.Silence.Seconds(),
		Coverage:        f.Coverage(),
		CollectorsKnown: f.CollectorsKnown,
		CollectorsLive:  f.CollectorsLive,
		SessionsKnown:   f.SessionsKnown,
		SessionsLive:    f.SessionsLive,
		Collectors:      feedStatusViews(f.Collectors),
		Sessions:        feedStatusViews(f.Sessions),
	}
	if s.opts.Feed != nil {
		fs := s.opts.Feed.Snapshot()
		v.DegradedEvents = fs.Degraded
		v.RecoveredEvents = fs.Recovered
	}
	return v
}

// EndpointView is the JSON shape of one endpoint's serving stats.
type EndpointView struct {
	Endpoint string           `json:"endpoint"`
	Latency  StageLatencyView `json:"latency"`
	Statuses map[string]int64 `json:"statuses"`
}

// HTTPView is the serving-path telemetry section of /v1/stats.
type HTTPView struct {
	Endpoints []EndpointView    `json:"endpoints"`
	SSELag    *StageLatencyView `json:"sse_lag,omitempty"`
}

func httpView(s metrics.HTTPSnapshot) *HTTPView {
	v := &HTTPView{Endpoints: make([]EndpointView, len(s.Endpoints))}
	for i, e := range s.Endpoints {
		v.Endpoints[i] = EndpointView{
			Endpoint: e.Endpoint,
			Latency:  stageLatencyView(e.Latency),
			Statuses: e.Statuses,
		}
	}
	if s.SSELag.Count > 0 {
		lag := stageLatencyViewWithBuckets(s.SSELag)
		v.SSELag = &lag
	}
	return v
}

// StatsView is the /v1/stats response.
type StatsView struct {
	Ready        bool                     `json:"ready"`
	SnapshotAt   time.Time                `json:"snapshot_at"`
	OpenCount    int                      `json:"open_outages"`
	Resolved     int                      `json:"resolved_outages"`
	Incidents    int                      `json:"incidents"`
	Ingest       *IngestView              `json:"ingest,omitempty"`
	Store        *StoreView               `json:"store,omitempty"`
	Checkpoint   *CheckpointView          `json:"checkpoint,omitempty"`
	Probe        *ProbeStatsView          `json:"probe,omitempty"`
	BinClose     *BinCloseView            `json:"bin_close,omitempty"`
	Bus          *events.Stats            `json:"bus,omitempty"`
	Subscribers  []events.SubscriberDepth `json:"subscribers,omitempty"`
	Relay        *events.RelayInfo        `json:"relay,omitempty"`
	RelayClients []events.SubscriberDepth `json:"relay_clients,omitempty"`
	Service      *ServiceView             `json:"service,omitempty"`
	HTTP         *HTTPView                `json:"http,omitempty"`
	Feeds        *FeedHealthView          `json:"feeds,omitempty"`
}

// EventView is the SSE data payload: the bus event with its payload
// rendered through the same views as the REST endpoints.
type EventView struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Kind     string            `json:"kind"`
	Status   *OpenOutageView   `json:"status,omitempty"`
	Outage   *OutageView       `json:"outage,omitempty"`
	Incident *IncidentView     `json:"incident,omitempty"`
	Pending  *PendingProbeView `json:"pending,omitempty"`
	Probe    *ProbeOutcomeView `json:"probe,omitempty"`
	Trace    *TraceView        `json:"trace,omitempty"`
	// Feed transitions are already JSON-shaped; passed through as-is.
	Feed *bgpstream.FeedTransition `json:"feed,omitempty"`
}

func (s *Server) eventView(ev events.Event) EventView {
	v := EventView{Seq: ev.Seq, Time: ev.Time, Kind: string(ev.Kind)}
	if ev.Status != nil {
		ov := s.openView(ev.Status)
		v.Status = &ov
	}
	if ev.Outage != nil {
		ov := s.outageView(0, ev.Outage)
		v.Outage = &ov
	}
	if ev.Incident != nil {
		iv := s.incidentView(0, ev.Incident)
		v.Incident = &iv
	}
	if ev.Pending != nil {
		pv := s.pendingView(ev.Pending)
		v.Pending = &pv
	}
	if ev.Probe != nil {
		pv := s.probeOutcomeView(ev.Probe)
		v.Probe = &pv
	}
	if ev.Trace != nil {
		tv := s.traceView(0, ev.Trace)
		v.Trace = &tv
	}
	v.Feed = ev.Feed
	return v
}
