package obs

import (
	"io"
	"sort"
	"time"
)

// merge.go — the cross-process timeline merge. A fleet sweep's spans live in
// several flight recorders: the coordinator's (lease state machine, chunk
// grants, assembly) and one per worker (lease, evaluate, publish, plus the
// engine's nested sweep/chunk spans). MergeTimeline folds them into one
// Timeline of per-process tracks on a single timebase:
//
//   - every worker's records are shifted by that worker's estimated clock
//     offset (ClockSync.Offset of its most recent sync — the one with the
//     largest worker-clock T0, which is the only sync guaranteed to
//     reference the *current* coordinator epoch after a coordinator
//     restart);
//   - the whole merged record set is then re-based so the earliest span
//     starts at zero — fragments recorded before a coordinator restart may
//     map to negative coordinator-clock times, and the trace-event format
//     wants non-negative timestamps;
//   - span IDs are assumed process-namespaced (WithProcessID), so records
//     keep their IDs and parents verbatim and cross-process parenting
//     (worker spans under the coordinator's chunk span) survives the merge.
//
// WriteChromeTimeline renders a Timeline with one Chrome trace-event
// *process* per track, named via process_name metadata events — the Perfetto
// view of "where did this fleet sweep's wall-clock go, per worker".

// ProcessTrack is one process's records inside a merged Timeline, already on
// the merged timebase.
type ProcessTrack struct {
	Name    string
	Records []Record
}

// Timeline is a set of per-process span tracks on one shared timebase. The
// first track is the merging process (the coordinator); worker tracks follow
// sorted by name.
type Timeline struct {
	Tracks []ProcessTrack
}

// Flatten returns every track's records as one slice — the shape the folded
// exporter and record-scanning consumers want. Process-namespaced IDs keep
// parent links unambiguous in the flat form.
func (tl *Timeline) Flatten() []Record {
	var out []Record
	for _, tr := range tl.Tracks {
		out = append(out, tr.Records...)
	}
	return out
}

// MergeTimeline builds one timeline from the merging process's own records
// (its track is named coordName) and any number of worker fragments.
// Fragments of the same process are combined into one track, normalized by
// the process's latest-T0 clock sync; fragments without a sync merge with
// offset zero. The result is re-based to start at zero.
func MergeTimeline(coordName string, local []Record, frags []*Fragment) *Timeline {
	// Group fragments per process and pick each process's newest sync: T0 is
	// monotonic per worker, so the largest T0 is the most recent lease
	// round-trip — after a coordinator restart the only sync whose Coord
	// stamp refers to the live coordinator's clock.
	type procState struct {
		recs    []Record
		sync    ClockSync
		hasSync bool
	}
	procs := make(map[string]*procState)
	var names []string
	for _, f := range frags {
		if f == nil {
			continue
		}
		ps := procs[f.Process]
		if ps == nil {
			ps = &procState{}
			procs[f.Process] = ps
			names = append(names, f.Process)
		}
		ps.recs = append(ps.recs, f.Records...)
		if f.HasSync && (!ps.hasSync || f.Sync.T0 > ps.sync.T0) {
			ps.sync, ps.hasSync = f.Sync, true
		}
	}
	sort.Strings(names)

	tl := &Timeline{}
	tl.Tracks = append(tl.Tracks, ProcessTrack{
		Name:    coordName,
		Records: append([]Record(nil), local...),
	})
	for _, name := range names {
		ps := procs[name]
		recs := append([]Record(nil), ps.recs...)
		if ps.hasSync {
			off := ps.sync.Offset()
			for i := range recs {
				recs[i].Start += off
			}
		}
		tl.Tracks = append(tl.Tracks, ProcessTrack{Name: name, Records: recs})
	}

	// Re-base the merged set so the earliest span starts at zero. Skew
	// normalization can push worker spans before the coordinator's epoch
	// (a worker whose sync predates a coordinator restart), and exporters
	// want non-negative timestamps.
	base := time.Duration(0)
	first := true
	for _, tr := range tl.Tracks {
		for i := range tr.Records {
			if first || tr.Records[i].Start < base {
				base, first = tr.Records[i].Start, false
			}
		}
	}
	if base != 0 {
		for _, tr := range tl.Tracks {
			for i := range tr.Records {
				tr.Records[i].Start -= base
			}
		}
	}
	return tl
}

// WriteChromeTimeline renders a merged timeline as Chrome trace-event JSON
// with one trace process per track: track k becomes PID k+1, named by a
// process_name metadata event, and its spans keep their TID lanes within the
// process. The single-process exporter (WriteChromeTrace) stays as-is for
// local views; this is the fleet-merged form.
func WriteChromeTimeline(w io.Writer, tl *Timeline) error {
	events := make([]chromeEvent, 0, len(tl.Tracks))
	for k, trk := range tl.Tracks {
		pid := k + 1
		events = append(events, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]any{"name": trk.Name},
		})
		for _, r := range trk.Records {
			events = append(events, spanEvent(r, pid))
		}
	}
	return writeChrome(w, events)
}
