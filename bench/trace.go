package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// round share its round number; Parent indexes the recorder's span list
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the timed run runs.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Round: round})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover. Children that overlap each other
// (parallel calls) cover their union once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// phases are the parts of one round's critical path, in nanoseconds.
// Parties and aggregators sit on their own hosts in a deployment, so a
// step every party (or node) takes on its own costs the round the slowest
// one, and a fan-out phase costs its wall time.
type phases struct {
	Transform, Upload, Recover, Fuse, Download, Inverse int64
}

func (p phases) total() int64 {
	return p.Transform + p.Upload + p.Recover + p.Fuse + p.Download + p.Inverse
}

func (p *phases) add(q phases) {
	p.Transform += q.Transform
	p.Upload += q.Upload
	p.Recover += q.Recover
	p.Fuse += q.Fuse
	p.Download += q.Download
	p.Inverse += q.Inverse
}

// phasesFromSpans rebuilds each round's critical path from the spans
// alone, keyed by round number: the longest span of the per-party and
// per-node steps, and first-start-to-last-end of the fan-out phases.
func phasesFromSpans(spans []span) map[int]phases {
	type extent struct {
		lo, hi int64
		set    bool
	}
	type round struct {
		longest                phases
		upload, fuse, download extent
	}
	grow := func(e *extent, s span) {
		if !e.set || s.Start < e.lo {
			e.lo = s.Start
		}
		e.hi, e.set = max(e.hi, s.End), true
	}
	rounds := make(map[int]*round)
	for _, s := range spans {
		r := rounds[s.Round]
		if r == nil {
			r = new(round)
			rounds[s.Round] = r
		}
		switch s.Name {
		case "core.transform":
			r.longest.Transform = max(r.longest.Transform, s.dur())
		case "core.inverse":
			r.longest.Inverse = max(r.longest.Inverse, s.dur())
		case "core.recover":
			r.longest.Recover = max(r.longest.Recover, s.dur())
		case "core.upload_all":
			grow(&r.upload, s)
		case "core.aggregate":
			grow(&r.fuse, s)
		case "core.download_all":
			grow(&r.download, s)
		}
	}
	out := make(map[int]phases, len(rounds))
	for n, r := range rounds {
		p := r.longest
		p.Upload = r.upload.hi - r.upload.lo
		p.Fuse = r.fuse.hi - r.fuse.lo
		p.Download = r.download.hi - r.download.lo
		out[n] = p
	}
	return out
}
