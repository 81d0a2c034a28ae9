package server

import (
	"reflect"
	"strings"
	"testing"

	"kepler/internal/bgpstream"
	"kepler/internal/events"
	"kepler/internal/metrics"
)

// TestSeriesTagsComplete checks the tags of every snapshot handleMetrics
// walks with writeSeries: each exported field declares a series
// (`metric:"name,counter|gauge"` with help text and a /v1/stats json key)
// or says it has none (`metric:"-"`), so a new counter cannot reach
// /v1/stats without a decision about /metrics. Series names are unique.
func TestSeriesTagsComplete(t *testing.T) {
	snapshots := []any{
		metrics.IngestSnapshot{},
		metrics.ServiceSnapshot{},
		metrics.StoreSnapshot{},
		metrics.CheckpointSnapshot{},
		metrics.ProbeSnapshot{},
		metrics.FeedStatsSnapshot{},
		events.Stats{},
		events.RelayInfo{},
		bgpstream.FeedSnapshot{},
	}
	owner := make(map[string]string)
	for _, v := range snapshots {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			field := rt.String() + "." + f.Name
			tag, ok := f.Tag.Lookup("metric")
			if !ok {
				t.Errorf("%s has no metric tag: declare its series or metric:\"-\"", field)
				continue
			}
			if tag == "-" {
				continue
			}
			name, typ, _ := strings.Cut(tag, ",")
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			default:
				t.Errorf("%s: series %s on a %s field", field, name, f.Type)
			}
			switch {
			case typ != "counter" && typ != "gauge":
				t.Errorf("%s: series type %q, want counter or gauge", field, typ)
			case typ == "counter" && !strings.HasSuffix(name, "_total"):
				t.Errorf("%s: counter %s does not end in _total", field, name)
			}
			if !strings.HasPrefix(name, "kepler_") {
				t.Errorf("%s: series %s lacks the kepler_ prefix", field, name)
			}
			if f.Tag.Get("help") == "" {
				t.Errorf("%s: series %s has no help tag", field, name)
			}
			if key := f.Tag.Get("json"); key == "" || key == "-" {
				t.Errorf("%s: series %s has no /v1/stats json key", field, name)
			}
			if prev, dup := owner[name]; dup {
				t.Errorf("series %s declared by both %s and %s", name, prev, field)
			}
			owner[name] = field
		}
	}
}
