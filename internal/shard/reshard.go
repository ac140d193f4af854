package shard

// Resharding: rebuilding a sharded deployment's WAL set onto a
// different ring size. The source WALs are replayed in shard order —
// the same canonical concatenation fleet.ReplayLatestWALs produces — and
// every result is re-routed to the destination shard that owns its ME
// under the destination ring. Placement is a pure function of (ME,
// shard count), so the destination WAL set is exactly what a campaign
// run against the new shard count would have written, minus request
// interleaving: per-ME result order is preserved because each ME's
// results appear in source-log order and land in a single destination.

import (
	"fmt"

	"roamsim/internal/walsink"
	"roamsim/internal/wire"
)

// reshardBatch bounds how many results buffer per destination frame
// while copying — large enough for dense frames, small enough to keep
// the copy's memory footprint flat.
const reshardBatch = 1024

// ReshardStats reports what one Reshard copied.
type ReshardStats struct {
	Records int // results replayed out of the source WALs
	Batches int // frames appended across the destination WALs
	Moved   int // results whose owning shard changed
}

// Reshard replays every record of the source WALs in shard order and
// appends each result to its owning destination WAL under the
// destination ring (NewRing(len(dst))). Consecutive results bound for
// the same destination are re-batched into dense frames. The caller
// owns both sets of sinks: sources must be quiescent (nothing
// appending — pause the gateway first), destinations are typically
// freshly opened empty WALs. Reshard syncs the destinations before
// returning, so a crash after Reshard loses nothing.
func Reshard(src, dst []*walsink.Sink) (ReshardStats, error) {
	var st ReshardStats
	if len(dst) == 0 {
		return st, fmt.Errorf("shard: reshard needs at least one destination")
	}
	srcRing, dstRing := NewRing(len(src)), NewRing(len(dst))
	cur := -1
	var batch []wire.Result
	flush := func() {
		if len(batch) > 0 {
			dst[cur].Append(batch)
			st.Batches++
			batch = batch[:0]
		}
	}
	for _, s := range src {
		if _, err := s.Replay(0, func(r wire.Result) error {
			to := dstRing.Shard(r.ME)
			if to != cur {
				flush()
				cur = to
			}
			batch = append(batch, r)
			if len(batch) >= reshardBatch {
				flush()
			}
			st.Records++
			if srcRing.Shard(r.ME) != to {
				st.Moved++
			}
			return nil
		}); err != nil {
			return st, err
		}
	}
	flush()
	for i, d := range dst {
		// Append carries no error return; surface any write failure
		// before the caller swaps the new WAL set live.
		if err := d.Err(); err != nil {
			return st, fmt.Errorf("shard: reshard destination %d: %w", i, err)
		}
		if err := d.Sync(); err != nil {
			return st, fmt.Errorf("shard: reshard destination %d: %w", i, err)
		}
	}
	return st, nil
}

// MovedMEs returns the subset of mes (order preserved) whose owning
// shard differs between the two rings — the ring diff that tells a
// reshard which MEs will land on a fresh server and have to
// re-register. With consistent hashing the moved fraction stays near
// the theoretical |Δshards|/max(from,to) rather than re-homing
// everything.
func MovedMEs(from, to *Ring, mes []string) []string {
	var moved []string
	for _, me := range mes {
		if from.Shard(me) != to.Shard(me) {
			moved = append(moved, me)
		}
	}
	return moved
}
