package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hvac/internal/transport"
)

// span is one timed call into a layer, recorded from this package only:
// around the loader fetch, each Source/BatchSource call, each
// Transport.Call and each OpenPFS. Times are nanoseconds since the
// tracer was created. Spans of one loader batch share Request.
type span struct {
	ID, Parent, Request int64
	Layer, Name         string
	Start, End          int64
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef names the span a child hangs under.
type spanRef struct{ id, request int64 }

// spanChunk is the growth step of the in-memory span log: appending to
// one ever-doubling slice would copy tens of megabytes mid-window.
const spanChunk = 1 << 16

// linkHandle keys a server-side file handle: handle numbers are per
// server, so the link address disambiguates.
type linkHandle struct {
	addr   string
	handle int64
}

// tracer keeps spans in memory until the run ends. It also carries the
// little routing state that lets a Transport.Call span find its parent
// without the program under test passing anything along: the source
// span registered for a path, and the one that opened a handle.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	// batch is the loader fetch span in progress; batchSrc the
	// BatchSource span inside it (the loader runs one at a time).
	batch    atomic.Pointer[spanRef]
	batchSrc atomic.Pointer[spanRef]

	mu       sync.Mutex
	chunks   [][]span
	byPath   map[string]spanRef
	byHandle map[linkHandle]spanRef
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byPath: make(map[string]spanRef), byHandle: make(map[linkHandle]spanRef)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// take returns every recorded span and empties the log.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	t.chunks = nil
	return out
}

// source wraps a per-file Source call in a core.client span under the
// current batch, and registers it as the parent of the RPCs for path.
func (t *tracer) source(read func(string) ([]byte, error)) func(string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		if !t.on.Load() {
			return read(path)
		}
		ref := spanRef{id: t.newID()}
		var parent int64
		if b := t.batch.Load(); b != nil {
			parent, ref.request = b.id, b.request
		}
		t.mu.Lock()
		t.byPath[path] = ref
		t.mu.Unlock()
		start := t.now()
		data, err := read(path)
		end := t.now()
		t.mu.Lock()
		delete(t.byPath, path)
		t.mu.Unlock()
		t.record(span{ID: ref.id, Parent: parent, Request: ref.request, Layer: "core.client", Name: "ReadAll", Start: start, End: end})
		return data, err
	}
}

// batchSource is source for the one-call-per-batch path.
func (t *tracer) batchSource(read func([]string) ([][]byte, error)) func([]string) ([][]byte, error) {
	return func(paths []string) ([][]byte, error) {
		if !t.on.Load() {
			return read(paths)
		}
		ref := &spanRef{id: t.newID()}
		var parent int64
		if b := t.batch.Load(); b != nil {
			parent, ref.request = b.id, b.request
		}
		t.batchSrc.Store(ref)
		start := t.now()
		out, err := read(paths)
		end := t.now()
		t.batchSrc.Store(nil)
		t.record(span{ID: ref.id, Parent: parent, Request: ref.request, Layer: "core.client", Name: "ReadBatch", Start: start, End: end})
		return out, err
	}
}

// parentOf finds the source span that caused req on the link to addr.
func (t *tracer) parentOf(addr string, req *transport.Request) spanRef {
	t.mu.Lock()
	var ref spanRef
	var ok bool
	switch req.Op {
	case transport.OpOpen:
		ref, ok = t.byPath[req.Path]
	case transport.OpRead, transport.OpClose:
		ref, ok = t.byHandle[linkHandle{addr, req.Handle}]
	}
	t.mu.Unlock()
	if !ok {
		// OpReadBatch, and the per-file reads a batch degrades to.
		if b := t.batchSrc.Load(); b != nil {
			ref = *b
		}
	}
	return ref
}

// tracedLink is the pass-through DialTransport decorator: it times every
// Call on one server link as a transport span.
type tracedLink struct {
	transport.Transport
	t *tracer
}

func (l tracedLink) Call(req *transport.Request) (*transport.Response, error) {
	t := l.t
	if !t.on.Load() {
		return l.Transport.Call(req)
	}
	parent := t.parentOf(l.Addr(), req)
	op, handle := req.Op, req.Handle
	start := t.now()
	resp, err := l.Transport.Call(req)
	end := t.now()
	switch {
	case op == transport.OpOpen && err == nil && resp.OK():
		t.mu.Lock()
		t.byHandle[linkHandle{l.Addr(), resp.Handle}] = parent
		t.mu.Unlock()
	case op == transport.OpClose:
		t.mu.Lock()
		delete(t.byHandle, linkHandle{l.Addr(), handle})
		t.mu.Unlock()
	}
	t.record(span{ID: t.newID(), Parent: parent.id, Request: parent.request, Layer: "transport", Name: opName(op), Start: start, End: end})
	return resp, err
}

// Retries forwards the link's retry count, which Client.Stats gathers by
// this method name.
func (l tracedLink) Retries() int64 {
	if rc, ok := l.Transport.(interface{ Retries() int64 }); ok {
		return rc.Retries()
	}
	return 0
}

func opName(op transport.Op) string {
	switch op {
	case transport.OpOpen:
		return "open"
	case transport.OpRead:
		return "read"
	case transport.OpClose:
		return "close"
	case transport.OpReadBatch:
		return "readbatch"
	}
	return "other"
}

// selfTime is parent's duration minus the part of its interval that the
// union of children covers: overlapping children count once, and a child
// reaching outside the parent counts only for the part inside.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var covered int64
	end := parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.dur() - covered
}

// layerTimes sums, per layer, the spans' durations and self times.
func layerTimes(spans []span) (total, self map[string]int64) {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = make(map[string]int64), make(map[string]int64)
	for _, s := range spans {
		total[s.Layer] += s.dur()
		self[s.Layer] += selfTime(s, children[s.ID])
	}
	return total, self
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"request":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Request, s.Layer, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
