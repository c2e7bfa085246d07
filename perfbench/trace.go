package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/scheduler"
	"repro/internal/workload"
)

// spanKind names the public boundary a span was recorded around.
type spanKind uint8

const (
	kindRunUntil spanKind = iota // sim.Engine.RunUntil, one per simulated minute
	kindSubmit                   // scheduler.Scheduler.Submit, the generator's sink
	kindSweep                    // monitor.Monitor.Sweep
	kindAppend                   // monitor.Store.Append into the TSDB
	kindStep                     // core.Controller.Step
	kindFreeze                   // core.FreezeAPI.Freeze into the scheduler
	kindUnfreeze                 // core.FreezeAPI.Unfreeze into the scheduler
	kindAdvance                  // federate.Federation.Advance(1)
	kindFedTick                  // the federated tick inside Advance, from TickStats
	numKinds
)

var kindNames = [numKinds]string{
	"RunUntil", "Submit", "Sweep", "Store.Append", "Step", "Freeze", "Unfreeze",
	"Advance", "FederatedTick",
}

// span is one timed call. start and end are nanoseconds since the tracer's
// base. parent indexes the enclosing span of the same lane (-1 for none);
// for a span on a shard lane it indexes the lane-0 span open when the shard
// ran, which overlaps it without containing it exclusively.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// lane is the span log of one goroutine; each lane is written by one
// goroutine at a time, so recording needs no locks.
type lane struct {
	spans []span
	open  []int32
	// ambient is the parent given to top-level spans of this lane.
	ambient int32
}

// tracer keeps spans in memory for the measured window and writes them out
// when the run ends. Lane 0 belongs to the harness goroutine; federated runs
// add one lane per data-center shard.
type tracer struct {
	base  time.Time
	on    bool
	lanes []*lane
	// queuePeak is the scheduler queue's high-water mark seen at Submit.
	queuePeak int
}

func newTracer(lanes int) *tracer {
	t := &tracer{base: time.Now(), lanes: make([]*lane, lanes)}
	for i := range t.lanes {
		t.lanes[i] = &lane{ambient: -1}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span on lane l and returns its index.
func (t *tracer) begin(l int, k spanKind) int32 {
	ln := t.lanes[l]
	parent := ln.ambient
	if n := len(ln.open); n > 0 {
		parent = ln.open[n-1]
	}
	idx := int32(len(ln.spans))
	ln.spans = append(ln.spans, span{start: t.now(), parent: parent, kind: k})
	ln.open = append(ln.open, idx)
	return idx
}

// end closes span idx, which must be the innermost open span of lane l.
func (t *tracer) end(l int, idx int32) {
	ln := t.lanes[l]
	ln.spans[idx].end = t.now()
	ln.open = ln.open[:len(ln.open)-1]
}

// add records an already-measured child span of parent on lane l.
func (t *tracer) add(l int, k spanKind, parent int32, start, end int64) {
	ln := t.lanes[l]
	ln.spans = append(ln.spans, span{start: start, end: end, parent: parent, kind: k})
}

// submitSink wraps the scheduler's Submit as a traced generator sink.
func (t *tracer) submitSink(s *scheduler.Scheduler) workload.Sink {
	return func(j *workload.Job) {
		if !t.on {
			s.Submit(j)
			return
		}
		sp := t.begin(0, kindSubmit)
		s.Submit(j)
		t.end(0, sp)
		if q := s.QueueLen(); q > t.queuePeak {
			t.queuePeak = q
		}
	}
}

// kindStat aggregates the spans of one kind.
type kindStat struct {
	count int64
	total int64 // ns, summed durations
	self  int64 // ns, durations minus same-lane children
}

// summary aggregates every lane. Self time subtracts only children on the
// same lane: shard lanes run concurrently with their lane-0 parent, so their
// time is reported beside it, not inside it. top sums lane-0 spans with no
// parent — the part of the window the spans cover.
func (t *tracer) summary() (stats [numKinds]kindStat, top int64, spans int) {
	for li, ln := range t.lanes {
		child := make([]int64, len(ln.spans))
		for _, sp := range ln.spans {
			if sp.parent >= 0 && li == 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range ln.spans {
			d := sp.end - sp.start
			st := &stats[sp.kind]
			st.count++
			st.total += d
			st.self += d - child[i]
			if li == 0 && sp.parent < 0 {
				top += d
			}
		}
		spans += len(ln.spans)
	}
	return stats, top, spans
}

// write stores the spans in path: a text header naming the kinds, then one
// little-endian record per span (lane u16, kind u8, parent i32, start i64,
// end i64), lane by lane.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench spans v1 lanes=%d kinds=", len(t.lanes))
	for i, n := range kindNames {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, n)
	}
	fmt.Fprintln(w)
	var rec [23]byte
	for li, ln := range t.lanes {
		for _, sp := range ln.spans {
			binary.LittleEndian.PutUint16(rec[0:], uint16(li))
			rec[2] = byte(sp.kind)
			binary.LittleEndian.PutUint32(rec[3:], uint32(sp.parent))
			binary.LittleEndian.PutUint64(rec[7:], uint64(sp.start))
			binary.LittleEndian.PutUint64(rec[15:], uint64(sp.end))
			w.Write(rec[:])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
