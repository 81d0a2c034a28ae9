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
// The interval sets how much a restart re-ingests, not what ingest pays per
// record: the engine keeps the checkpoint's encoded sections between
// captures and re-encodes only what changed since the last one, so a
// checkpoint costs its 720 KB write + fsync plus work proportional to the
// interval's churn (BENCH_pr16.json has the 1 m–6 h curve on the storm
// archive). Checkpointing stops for good when a WAL append fails and the
// daemon falls back to memory: a checkpoint past the frozen durable horizon
// would be refused at boot and would rotate out the ones that are not.
//
// There is no format flag: a checkpoint is the version-3 binary encoding
// (see core.CheckpointVersion for the layout), about 37 bytes per monitored
// path plus 17 per stable-baseline entry. A segment in any other encoding —
// an older build's JSON checkpoint after an upgrade — is discarded at boot
// like a corrupt one, so the first start of a new build re-ingests from
// record zero once and checkpoints in the new format from there on.
func validateCheckpointFlags(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("-checkpoint-interval must be positive, got %v (stream time between engine checkpoints; restart recovery re-ingests at most one interval of records)", interval)
	}
	return nil
}
