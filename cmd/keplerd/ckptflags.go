package main

import (
	"fmt"
	"time"
)

// validateCheckpointFlags checks the engine-checkpoint flags before any
// world generation happens, in the descriptive style of probeflags.go.
//
// -checkpoint-interval is stream time, not wall time: bins advance with
// the record stream, so a 60x replay checkpoints 60x more often on the
// wall clock. Checkpoints only exist with -data-dir (they ride the durable
// store's directory); without one the interval is accepted and ignored.
// The interval interacts with -compact-mb only in disk terms: checkpoint
// segments rotate on their own (newest two generations are kept) and WAL
// compaction never touches them, so disk stays bounded by history size +
// one WAL window + two checkpoints regardless of either setting.
//
// The interval is a floor on the spacing of checkpoints, not a schedule,
// and it sets how much a restart re-ingests, not what ingest pays per
// record. A bin close only captures a checkpoint (the engine keeps the
// encoded sections between captures and re-encodes what changed since the
// last one — work proportional to the interval's churn; BENCH_pr16.json has
// the 1 m–6 h curve on the storm archive); encoding it and the 720 KB write
// + fsync belong to the checkpoint saver's goroutine (store.CheckpointSaver),
// one save at a time. A checkpoint that comes due while a save is still in
// flight is not queued and ingest does not wait for the disk: it stays due
// and is captured at the first later bin close that finds the saver idle,
// from that bin close's state. So the recovery bound is one interval of
// stream plus what ingest covered during one save: nothing extra on a live
// feed, where a save finishes long before the next bin closes and the
// schedule is exactly "every bin close at least an interval after the last
// checkpoint's", and a couple of bins when replaying an archive at maximum
// speed, where fewer checkpoints are written than come due
// (checkpoint.deferred in /v1/stats counts them; BENCH_pr19.json). Once the
// source has ended there is no later bin close to move to, so a due
// checkpoint waits for the saver instead, and the last one is on disk
// before "source drained" is logged. A capture or save that fails (logged
// once) leaves the checkpoint due: the next bin close with the saver idle
// retries, rather than a whole interval later. Checkpointing stops for good
// when a WAL append fails and the daemon falls back to memory: a checkpoint
// past the frozen durable horizon would be refused at boot and would rotate
// out the ones that are not. The save in flight at that moment, if any, was
// captured below the horizon and finishes. Shutdown waits for it too.
//
// There is no format flag: a checkpoint is the version-3 binary encoding
// (see core.CheckpointVersion for the layout), about 37 bytes per monitored
// path plus 17 per stable-baseline entry. A segment in any other encoding —
// an older build's JSON checkpoint after an upgrade — is discarded at boot
// like a corrupt one, so the first start of a new build re-ingests from
// record zero once and checkpoints in the new format from there on.
func validateCheckpointFlags(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive, got %v (least stream time between engine checkpoints; restart recovery re-ingests at most one interval of stream plus what one checkpoint save took)", interval)
	}
	return nil
}
