package bgpstream

import (
	"net/netip"
	"testing"
	"time"

	"kepler/internal/bgp"
	"kepler/internal/mrt"
)

func TestShardOfStableAndKeyAffine(t *testing.T) {
	p1 := netip.MustParsePrefix("10.0.1.0/24")
	for n := 1; n <= 16; n++ {
		a := ShardOf(64500, p1, n)
		if a != ShardOf(64500, p1, n) {
			t.Fatalf("n=%d: non-deterministic shard", n)
		}
		if a < 0 || a >= n {
			t.Fatalf("n=%d: shard %d out of range", n, a)
		}
	}
	// Distinct keys should spread (not a strict requirement per pair, but
	// the full pool must hit every shard).
	hit := make(map[int]bool)
	for i := 0; i < 256; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
		hit[ShardOf(bgp.ASN(64500+i%4), p, 4)] = true
	}
	if len(hit) != 4 {
		t.Errorf("256 keys over 4 shards hit only %v", hit)
	}
}

func TestFanoutSplitsAndBroadcasts(t *testing.T) {
	f := NewFanout(4)
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

	upd := &mrt.Record{
		Time: at, Kind: mrt.KindUpdate, Collector: "rrc00", PeerAS: 64500,
		Update: &bgp.Update{
			Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
			Announced: []netip.Prefix{
				netip.MustParsePrefix("10.0.1.0/24"),
				netip.MustParsePrefix("10.0.2.0/24"),
			},
			Attrs: bgp.Attributes{ASPath: bgp.Path{64500, 64501}},
		},
	}
	if n := f.Add(upd); n != 3 {
		t.Fatalf("ops queued = %d, want 3", n)
	}

	// Ops land on the shard ShardOf names, with strictly increasing seq,
	// withdrawals before announcements.
	total := 0
	var lastSeq uint64
	for i := 0; i < 4; i++ {
		ops := f.Take(i)
		total += len(ops)
		for _, op := range ops {
			if got := f.ShardOf(op.Peer, op.Prefix); got != i {
				t.Errorf("op for key %v landed on shard %d, ShardOf says %d", op.Prefix, i, got)
			}
			if op.Seq <= 0 {
				t.Errorf("missing seq on %+v", op)
			}
		}
		if len(ops) > 0 && ops[len(ops)-1].Seq > lastSeq {
			lastSeq = ops[len(ops)-1].Seq
		}
	}
	if total != 3 {
		t.Fatalf("total ops = %d, want 3", total)
	}

	// Peer-down broadcasts to every shard.
	down := &mrt.Record{
		Time: at.Add(time.Minute), Kind: mrt.KindState, Collector: "rrc00", PeerAS: 64500,
		OldState: mrt.StateEstablished, NewState: mrt.StateIdle,
	}
	if n := f.Add(down); n != 4 {
		t.Fatalf("broadcast queued %d ops, want 4", n)
	}
	for i := 0; i < 4; i++ {
		ops := f.Take(i)
		if len(ops) != 1 || ops[0].Kind != OpPeerDown || ops[0].Peer != 64500 {
			t.Errorf("shard %d: broadcast ops = %+v", i, ops)
		}
		if ops[0].Seq <= lastSeq {
			t.Errorf("broadcast seq %d not after %d", ops[0].Seq, lastSeq)
		}
	}

	// Re-establish queues nothing.
	up := &mrt.Record{
		Time: at.Add(2 * time.Minute), Kind: mrt.KindState, Collector: "rrc00", PeerAS: 64500,
		OldState: mrt.StateIdle, NewState: mrt.StateEstablished,
	}
	if n := f.Add(up); n != 0 {
		t.Errorf("established state queued %d ops", n)
	}
}
