package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"kepler/internal/mrt"
	"kepler/internal/topology"
)

// The golden tests pin the SHA-256 of the rendered archive bytes. Any
// change to route selection (a tie in the preference order that breaks
// differently), to the iteration order of the relaxation, or to the
// communities a route carries moves these hashes; a faster renderer must
// reproduce them exactly.

var (
	benchWorldOnce sync.Once
	benchWorldW    *topology.World
	benchWorldErr  error
)

// benchWorld is topology.DefaultConfig() at seed 1, the world the
// benchmark's workloads render.
func benchWorld(tb testing.TB) *topology.World {
	tb.Helper()
	benchWorldOnce.Do(func() {
		cfg := topology.DefaultConfig()
		cfg.Seed = 1
		benchWorldW, benchWorldErr = topology.Generate(cfg)
	})
	if benchWorldErr != nil {
		tb.Fatal(benchWorldErr)
	}
	return benchWorldW
}

// stormRender renders the storm-durable workload's scenario shape over the
// given number of days: outages scheduled from day 3 to one day before the
// end, 15% partial, on PoPs with at least 6 members, two collector session
// resets and 5% sticky restorations.
func stormRender(tb testing.TB, days, fac, ixp, link, ases int, ribDump time.Duration) *Result {
	tb.Helper()
	w := benchWorld(tb)
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	sched := GenerateSchedule(w, ScheduleConfig{
		Seed:            2,
		Start:           start.Add(3 * 24 * time.Hour),
		End:             end.Add(-24 * time.Hour),
		FacilityOutages: fac, IXPOutages: ixp, LinkOutages: link, ASOutages: ases,
		PartialFraction: 0.15, MinMembers: 6,
	})
	res, err := Render(w, sched, start, end, RenderConfig{
		Seed: 3, SessionResets: 2, StickyFraction: 0.05, RIBDumpInterval: ribDump,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// archiveSHA256 returns the hex SHA-256 of the MRT archive of records.
func archiveSHA256(tb testing.TB, records []*mrt.Record) string {
	tb.Helper()
	h := sha256.New()
	if err := mrt.WriteAll(h, records); err != nil {
		tb.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStormArchive pins the storm-durable workload's archive at
// --seed 1: a year, 30 facility, 12 IXP, 100 link and 20 AS outages, one
// RIB dump at the start.
func TestGoldenStormArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long render skipped in -short mode")
	}
	res := stormRender(t, 365, 30, 12, 100, 20, 0)
	const want = "df43d27319823d6ce2810f6e9a0185de4653fe98ea9db0f0ffb7317ab84e2b00"
	if got := archiveSHA256(t, res.Records); got != want {
		t.Fatalf("storm archive sha256 = %s (%d records), want %s", got, len(res.Records), want)
	}
}

// TestGoldenDumpArchive pins a month of the same world with a RIB dump every
// 48 h, so every periodic dump the renderer emits is covered.
func TestGoldenDumpArchive(t *testing.T) {
	res := stormRender(t, 30, 4, 2, 10, 2, 48*time.Hour)
	const want = "75beef085c4a334361cee60045940a48516d300fbab9fb41f8f68e79e6f48bd8"
	if got := archiveSHA256(t, res.Records); got != want {
		t.Fatalf("dump archive sha256 = %s (%d records), want %s", got, len(res.Records), want)
	}
}

// BenchmarkRender renders the storm workload's outage mix (30 facility, 12
// IXP, 100 link and 20 AS outages) compressed into 30 days of the bench
// world, with only the initial RIB dump: the per-transition recomputation
// dominates, as it does in the year-long storm.
func BenchmarkRender(b *testing.B) {
	benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stormRender(b, 30, 30, 12, 100, 20, 0)
	}
}
