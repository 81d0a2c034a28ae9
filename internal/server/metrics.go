package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"kepler/internal/metrics"
)

// writeHistogram emits one full Prometheus histogram metric family: the
// HELP/TYPE preamble followed by a single (optionally labeled) series.
func writeHistogram(b *strings.Builder, name, help, labels string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(b, name, labels, h)
}

// writeHistogramSeries emits the _bucket/_sum/_count sample lines of one
// histogram series in the text exposition format: bucket counts are
// cumulative, the le values are bound durations in seconds, and a +Inf
// bucket always closes the series. labels, if non-empty, is a
// ready-formatted `k="v"` list prepended to each bucket's le pair.
func writeHistogramSeries(b *strings.Builder, name, labels string, h metrics.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, h.Sum.Seconds(), name, h.Count)
		return
	}
	fmt.Fprintf(b, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum.Seconds(), name, labels, h.Count)
}

// writeFamily emits one single-sample family.
func writeFamily(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// series is one tagged snapshot field: its index and its family's
// HELP/TYPE preamble up to the sample value.
type series struct {
	field int
	head  string
}

// seriesByType caches each snapshot type's tagged fields (reflect.Type →
// []series): tags are fixed at compile time, so they are parsed once.
var seriesByType sync.Map

func seriesOf(t reflect.Type) []series {
	if ss, ok := seriesByType.Load(t); ok {
		return ss.([]series)
	}
	var ss []series
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, typ, ok := strings.Cut(f.Tag.Get("metric"), ",")
		if !ok {
			continue
		}
		ss = append(ss, series{i, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s ", name, f.Tag.Get("help"), name, typ, name)})
	}
	seriesByType.Store(t, ss)
	return ss
}

// writeSeries emits one family for every field of the snapshot struct v
// tagged `metric:"name,type"`, in declaration order, with the field's help
// tag as its HELP text. Fields tagged `metric:"-"` have no series; they are
// served elsewhere or not at all.
func writeSeries(b *strings.Builder, v any) {
	rv := reflect.ValueOf(v)
	for _, s := range seriesOf(rv.Type()) {
		var x float64
		switch fv := rv.Field(s.field); {
		case fv.CanInt():
			x = float64(fv.Int())
		case fv.CanUint():
			x = float64(fv.Uint())
		case fv.CanFloat():
			x = fv.Float()
		}
		b.WriteString(s.head)
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteByte('\n')
	}
}

// handleMetrics renders the daemon's atomic counters in the Prometheus
// text exposition format (version 0.0.4) so a standard scraper can watch a
// keplerd fleet without any client library: one hand-rolled writer over
// the same lock-free snapshots /v1/stats serves. A plain counter or gauge
// is declared once, by its snapshot field's tags (writeSeries); this
// handler writes by hand only what it derives, labels or buckets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	snap := s.snap.Load()
	ready := 0.0
	if s.ready.Load() {
		ready = 1
	}
	writeFamily(&b, "kepler_ready", "gauge", "Whether ingestion has started.", ready)
	writeFamily(&b, "kepler_open_outages", "gauge", "Ongoing outages as of the last closed bin.", float64(len(snap.Open)))
	writeFamily(&b, "kepler_resolved_outages_total", "counter", "Completed outages recorded.", float64(snap.ResolvedTotal))
	writeFamily(&b, "kepler_incidents_total", "counter", "Classified outage signals recorded.", float64(snap.IncidentsTotal))

	if s.opts.Ingest != nil {
		ing := s.opts.Ingest()
		writeSeries(&b, ing)
		writeFamily(&b, "kepler_ingest_barrier_seconds_total", "counter", "Cumulative wall time inside bin barriers.", ing.BarrierTime.Seconds())
		depth := 0
		for _, d := range ing.QueueDepths {
			depth += d
		}
		writeFamily(&b, "kepler_ingest_queue_depth", "gauge", "Dispatched-but-unprocessed op batches across shards.", float64(depth))
	}
	if s.opts.Service != nil {
		writeSeries(&b, s.opts.Service.Snapshot())
	}
	if s.opts.Store != nil {
		writeSeries(&b, s.opts.Store())
	}
	if s.opts.Checkpoint != nil {
		ck := s.opts.Checkpoint()
		writeHistogram(&b, "kepler_checkpoint_ingest_seconds",
			"Engine checkpoint wall time on the ingest goroutine (capture; at end of source also the wait for the save in flight).",
			"", ck.Ingest)
		writeHistogram(&b, "kepler_checkpoint_save_seconds",
			"Engine checkpoint wall time on the saver goroutine (encode, write, fsync).",
			"", ck.Save)
		writeSeries(&b, ck)
	}
	if s.opts.Probe != nil {
		writeSeries(&b, s.opts.Probe())
	}
	if s.opts.Bus != nil {
		writeSeries(&b, s.opts.Bus.Stats())
		if depths := s.opts.Bus.SubscriberDepths(); len(depths) > 0 {
			fmt.Fprint(&b, "# HELP kepler_sse_queue_depth Per-subscriber event queue occupancy.\n# TYPE kepler_sse_queue_depth gauge\n")
			for _, d := range depths {
				fmt.Fprintf(&b, "kepler_sse_queue_depth{subscriber=\"%d\"} %d\n", d.ID, d.Depth)
			}
			fmt.Fprint(&b, "# HELP kepler_sse_queue_dropped_total Per-subscriber deliveries lost to a full queue.\n# TYPE kepler_sse_queue_dropped_total counter\n")
			for _, d := range depths {
				fmt.Fprintf(&b, "kepler_sse_queue_dropped_total{subscriber=\"%d\"} %d\n", d.ID, d.Dropped)
			}
		}
	}
	if s.opts.Relay != nil {
		writeSeries(&b, s.opts.Relay.Info())
	}
	if f := snap.Feeds; f != nil {
		writeFamily(&b, "kepler_feed_coverage_ratio", "gauge", "Live peer sessions over known peer sessions (stream time).", f.Coverage())
		writeSeries(&b, *f)
	}
	if s.opts.Feed != nil {
		writeSeries(&b, s.opts.Feed.Snapshot())
	}
	if s.opts.HTTP != nil {
		hs := s.opts.HTTP.Snapshot()
		if len(hs.Endpoints) > 0 {
			name := "kepler_http_request_seconds"
			fmt.Fprintf(&b, "# HELP %s API request latency by route pattern (SSE streams record connection lifetime).\n# TYPE %s histogram\n", name, name)
			for _, e := range hs.Endpoints {
				writeHistogramSeries(&b, name, fmt.Sprintf(`endpoint=%q`, e.Endpoint), e.Latency)
			}
		}
		writeHistogram(&b, "kepler_sse_delivery_lag_seconds",
			"Bus publication to completed client write, live SSE deliveries only.",
			"", hs.SSELag)
	}
	if s.opts.BinStage != nil {
		bc := s.opts.BinStage()
		writeHistogram(&b, "kepler_bin_close_seconds",
			"End-to-end bin-close wall time (barrier wait through hook dispatch).",
			"", bc.Total)
		name := "kepler_bin_close_stage_seconds"
		fmt.Fprintf(&b, "# HELP %s Bin-close wall time by pipeline stage.\n# TYPE %s histogram\n", name, name)
		for i, stage := range metrics.BinStageNames {
			writeHistogramSeries(&b, name, fmt.Sprintf(`stage=%q`, stage), bc.Stages[i])
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
