package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanID names a layer boundary the replica records a span at.
type spanID uint8

const (
	spPump        spanID = iota // the replica's own loop; its self time is what no layer accounts for
	spReplayer                  // live.Replayer.Next
	spDecode                    // mrt.Reader.Next
	spProcess                   // core.Engine.Process that closed no bin
	spBinClose                  // core.Engine.Process during which BinClosed fired
	spFlush                     // core.Engine.Flush at end of stream
	spHooks                     // one callback of the daemon's hook chain
	spPublish                   // events.EngineHooks callback: Bus.Publish
	spAppend                    // store.Append of an ordinary event (the bus sink)
	spBinFlush                  // store.Append of a bin_closed event: WAL flush
	spCompaction                // store.Append of a bin_closed event that compacted
	spSnapshot                  // server.BuildSnapshot[Paged] + PublishSnapshot
	spCkptCapture               // core.Engine.Checkpoint
	spCkptEncode                // core.Checkpoint.Encode
	spCkptSave                  // store.SaveCheckpoint
	spStoreOpen                 // store.Open + Summary on a populated dir
	spCkptLoad                  // store.LoadCheckpoint
	spCkptDecode                // core.DecodeCheckpoint
	spRestore                   // core.Engine.RestoreFrom
	spSeek                      // live.Tracked.Seek to the checkpoint cursor
	numSpans
)

var spanNames = [numSpans]string{
	"bench.pump", "live.replayer", "mrt.decode", "core.process", "core.bin_close", "core.flush",
	"events.hooks", "events.publish", "store.append", "store.bin_flush", "store.compaction",
	"server.snapshot_build", "core.checkpoint_capture", "core.checkpoint_encode", "store.checkpoint_save",
	"store.open", "store.load_checkpoint", "core.checkpoint_decode", "core.restore", "live.seek",
}

// perRecord spans happen millions of times; they are only aggregated per
// closed bin. Every other span also keeps its self time as a sample, and
// is written out individually when it is one of the bin-barrier spans or
// encloses one.
var perRecord = [numSpans]bool{spReplayer: true, spDecode: true, spProcess: true}

var keptIndividually = [numSpans]bool{
	spBinClose: true, spFlush: true, spBinFlush: true, spCompaction: true, spSnapshot: true,
	spCkptCapture: true, spCkptEncode: true, spCkptSave: true,
	spStoreOpen: true, spCkptLoad: true, spCkptDecode: true, spRestore: true, spSeek: true,
}

type aggregate struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

// spanRecord is one individually kept span, times in ns since the trace
// began. Parent indexes the enclosing kept span, -1 at the top.
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Bin    int    `json:"bin"`
}

// binRecord aggregates one span name over one closed bin.
type binRecord struct {
	Bin   int    `json:"bin"`
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
}

type frame struct {
	id    spanID
	start time.Duration
	child time.Duration
	slot  int // index in tracer.spans once the frame is known to be kept, else -1
}

// tracer records spans opened and closed by one goroutine (the replica's
// ingest loop). A nil tracer is the untraced run: every method returns at
// once, so the replica has a single code path.
type tracer struct {
	t0      time.Time
	stack   []frame
	total   [numSpans]aggregate
	cur     [numSpans]aggregate // since the last closed bin
	samples [numSpans][]time.Duration
	spans   []spanRecord
	bins    []binRecord
	bin     int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{id: id, slot: -1})
	t.stack[len(t.stack)-1].start = time.Since(t.t0)
}

// end closes the innermost span under the name it was opened with.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.endAs(t.stack[len(t.stack)-1].id)
}

// endAs closes the innermost span under another name: what a call turned
// out to be (a Process that closed a bin, an Append that compacted) is
// only known once it returns.
func (t *tracer) endAs(id spanID) {
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	f := &t.stack[top]
	now := time.Since(t.t0)
	dur := now - f.start
	self := dur - f.child
	if top > 0 {
		t.stack[top-1].child += dur
	}
	for _, a := range [2]*aggregate{&t.total[id], &t.cur[id]} {
		a.Count++
		a.Total += dur
		a.Self += self
	}
	if !perRecord[id] {
		t.samples[id] = append(t.samples[id], self)
	}
	if keptIndividually[id] && f.slot < 0 {
		t.reserve(top)
	}
	if f.slot >= 0 {
		s := &t.spans[f.slot]
		s.Name, s.End = spanNames[id], int64(now)
	}
	t.stack = t.stack[:top]
}

// reserve gives frame i (and, first, every frame enclosing it) a slot in
// the individual span list, so children can name their parent before the
// parent has ended.
func (t *tracer) reserve(i int) {
	parent := -1
	for j := 0; j <= i; j++ {
		f := &t.stack[j]
		if f.slot < 0 {
			f.slot = len(t.spans)
			t.spans = append(t.spans, spanRecord{Name: spanNames[f.id], Start: int64(f.start), Parent: parent, Bin: t.bin})
		}
		parent = f.slot
	}
}

// closeBin moves the per-bin aggregates into the bin list. Called from the
// BinClosed hook.
func (t *tracer) closeBin() {
	if t == nil {
		return
	}
	for id := range t.cur {
		if a := t.cur[id]; a.Count > 0 {
			t.bins = append(t.bins, binRecord{t.bin, spanNames[id], a.Count, int64(a.Total), int64(a.Self)})
			t.cur[id] = aggregate{}
		}
	}
	t.bin++
}

func (t *tracer) selfSeconds(ids ...spanID) float64 {
	var d time.Duration
	for _, id := range ids {
		d += t.total[id].Self
	}
	return d.Seconds()
}

// selfSamples returns the self times of the named spans in the given unit.
func (t *tracer) selfSamples(unit time.Duration, ids ...spanID) []float64 {
	var out []float64
	for _, id := range ids {
		out = append(out, durations(t.samples[id], unit)...)
	}
	return out
}

// write dumps the trace as JSON.
func (t *tracer) write(path string, header map[string]any) error {
	type totalRecord struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
		Total int64  `json:"total_ns"`
		Self  int64  `json:"self_ns"`
	}
	var totals []totalRecord
	for id, a := range t.total {
		if a.Count > 0 {
			totals = append(totals, totalRecord{spanNames[id], a.Count, int64(a.Total), int64(a.Self)})
		}
	}
	header["totals"] = totals
	header["spans"] = t.spans
	header["bins"] = t.bins
	b, err := json.Marshal(header)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
