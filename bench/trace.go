package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"sealedbottle"
)

// span is one timed interval of the traced run: a call into a layer, or a
// whole operation. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index into the same tracer's spans; -1 at a root
	Op     int    `json:"op"`     // the operation the span belongs to
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one client's spans in memory. The client's goroutine opens and
// closes spans in stack order; a ring's per-rack calls run on other
// goroutines while the client waits inside the ring call, and attach to the
// span on top of the stack. A nil tracer, or one that is off, records
// nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	stack []int
	op    int

	// Inputs kept for the probes: the latest sweep query and result, and some
	// of the packages submitted.
	sweeps    int
	query     sealedbottle.SweepQuery
	result    sealedbottle.SweepResult
	submitted [][]byte
}

// keepSubmitted bounds the packages a tracer keeps for the probes.
const keepSubmitted = 256

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOn switches recording; call it only while the client is idle.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its index, or
// -1 when nothing is recorded.
func (t *tracer) begin(name string) int {
	return t.open(name, true)
}

// beginAside opens a span under the innermost open one without becoming the
// innermost itself; concurrent calls under one parent use it.
func (t *tracer) beginAside(name string) int {
	return t.open(name, false)
}

func (t *tracer) open(name string, push bool) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	if parent < 0 {
		t.op++
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(now), Parent: parent, Op: t.op})
	if push {
		t.stack = append(t.stack, i)
	}
	return i
}

// end closes the span begin or beginAside returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = int64(now)
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration less the part of it that its
// child spans cover; overlapping children count once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[i])
	}
	return self
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes every client's spans as one JSON document.
func writeSpans(path string, tracers []*tracer) error {
	doc := make([][]span, len(tracers))
	for i, t := range tracers {
		doc[i] = t.spans
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend records a span around every call into the backend under it.
// With aside set it is one rack under a ring, called concurrently.
type tracedBackend struct {
	inner  sealedbottle.Backend
	tr     *tracer
	prefix string
	aside  bool
}

func (b *tracedBackend) begin(call string) int {
	if b.aside {
		return b.tr.beginAside(b.prefix + call)
	}
	return b.tr.begin(b.prefix + call)
}

func (b *tracedBackend) Submit(ctx context.Context, raw []byte) (string, error) {
	sp := b.begin("submit")
	id, err := b.inner.Submit(ctx, raw)
	b.tr.end(sp)
	if sp >= 0 && !b.aside {
		b.keep(raw)
	}
	return id, err
}

func (b *tracedBackend) SubmitBatch(ctx context.Context, raws [][]byte) ([]sealedbottle.SubmitResult, error) {
	sp := b.begin("submit")
	res, err := b.inner.SubmitBatch(ctx, raws)
	b.tr.end(sp)
	if sp >= 0 && !b.aside {
		b.keep(raws...)
	}
	return res, err
}

func (b *tracedBackend) keep(raws ...[]byte) {
	b.tr.mu.Lock()
	for _, raw := range raws {
		if len(b.tr.submitted) < keepSubmitted {
			b.tr.submitted = append(b.tr.submitted, raw)
		}
	}
	b.tr.mu.Unlock()
}

func (b *tracedBackend) Sweep(ctx context.Context, q sealedbottle.SweepQuery) (sealedbottle.SweepResult, error) {
	sp := b.begin("sweep")
	res, err := b.inner.Sweep(ctx, q)
	b.tr.end(sp)
	if sp >= 0 && !b.aside && err == nil {
		b.tr.mu.Lock()
		// The sweeper reuses the seen slice, so a kept query needs its own;
		// every 32nd sweep is enough for the probes.
		if b.tr.sweeps%32 == 0 {
			q.Seen = append([]string(nil), q.Seen...)
			b.tr.query, b.tr.result = q, res
		}
		b.tr.sweeps++
		b.tr.mu.Unlock()
	}
	return res, err
}

func (b *tracedBackend) Reply(ctx context.Context, id string, raw []byte) error {
	sp := b.begin("reply")
	err := b.inner.Reply(ctx, id, raw)
	b.tr.end(sp)
	return err
}

func (b *tracedBackend) ReplyBatch(ctx context.Context, posts []sealedbottle.ReplyPost) ([]error, error) {
	sp := b.begin("reply")
	errs, err := b.inner.ReplyBatch(ctx, posts)
	b.tr.end(sp)
	return errs, err
}

func (b *tracedBackend) Fetch(ctx context.Context, id string) ([][]byte, error) {
	sp := b.begin("fetch")
	replies, err := b.inner.Fetch(ctx, id)
	b.tr.end(sp)
	return replies, err
}

func (b *tracedBackend) FetchBatch(ctx context.Context, ids []string) ([]sealedbottle.FetchResult, error) {
	sp := b.begin("fetch")
	res, err := b.inner.FetchBatch(ctx, ids)
	b.tr.end(sp)
	return res, err
}

func (b *tracedBackend) Remove(ctx context.Context, id string) (bool, error) {
	sp := b.begin("remove")
	held, err := b.inner.Remove(ctx, id)
	b.tr.end(sp)
	return held, err
}

func (b *tracedBackend) Stats(ctx context.Context) (sealedbottle.Stats, error) {
	return b.inner.Stats(ctx)
}

func (b *tracedBackend) Close() error { return b.inner.Close() }
