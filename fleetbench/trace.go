package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wisdom/internal/router"
	"wisdom/internal/serve"
	"wisdom/internal/wisdom"
)

// span is one timed call at a layer boundary. Parent links a span to the
// open span of the calling layer for the same request content; spans of one
// request therefore chain loadgen -> router.forward -> wisdom.predict.
// ReportedMS carries the handling time the callee reported in its response
// (the front's for loadgen spans, the replica's for router.forward spans).
type span struct {
	ID         int64   `json:"id"`
	Parent     int64   `json:"parent,omitempty"`
	Name       string  `json:"name"`
	StartUS    int64   `json:"start_us"`
	DurUS      int64   `json:"dur_us"`
	Fail       bool    `json:"fail,omitempty"`
	ReportedMS float64 `json:"reported_ms,omitempty"`
	start      time.Time
	key        string
	closed     bool
}

// tracer keeps spans in memory for the traced phase. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[string][]int64 // layer + content key -> open span ids
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string][]int64)}
}

// reset drops every span recorded so far (the warm-up's) and restarts the
// clock; call it while no request is in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.t0, t.spans, t.open = time.Now(), nil, make(map[string][]int64)
}

// begin opens a span of layer name for the request content key, linked to
// the newest open span of parentLayer with the same key.
func (t *tracer) begin(name, parentLayer, key string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	var parent int64
	if ids := t.open[parentLayer+"\x00"+key]; len(ids) > 0 {
		parent = ids[len(ids)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, start: now, key: key})
	t.open[name+"\x00"+key] = append(t.open[name+"\x00"+key], id)
	return id
}

// end closes span id.
func (t *tracer) end(id int64, fail bool, reportedMS float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurUS = now.Sub(s.start).Microseconds()
	s.StartUS = s.start.Sub(t.t0).Microseconds()
	s.Fail, s.ReportedMS, s.closed = fail, reportedMS, true
	k := s.Name + "\x00" + s.key
	ids := t.open[k]
	for i, v := range ids {
		if v == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.open, k)
	} else {
		t.open[k] = ids
	}
}

// finished returns a copy of the closed spans of layer name.
func (t *tracer) finished(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.closed {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = writeSpans(w, t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// contentKey is the key spans are correlated on across layers.
func contentKey(yamlCtx, prompt string) string { return yamlCtx + "\x00" + prompt }

// tracedRouter decorates the front's *router.Router: every forward becomes a
// router.forward span carrying the replica-reported handling time. The
// embedded router supplies every other method the serve ladder looks for.
type tracedRouter struct {
	*router.Router
	tr *tracer
}

func (r *tracedRouter) PredictRoute(ctx context.Context, req serve.Request) (serve.Response, error) {
	id := r.tr.begin("router.forward", "loadgen", contentKey(req.Context, req.Prompt))
	resp, err := r.Router.PredictRoute(ctx, req)
	r.tr.end(id, err != nil, resp.LatencyMS)
	return resp, err
}

func (r *tracedRouter) PredictStreamRoute(ctx context.Context, req serve.Request, emit func(string)) (serve.Response, error) {
	id := r.tr.begin("router.forward", "loadgen", contentKey(req.Context, req.Prompt))
	resp, err := r.Router.PredictStreamRoute(ctx, req, emit)
	r.tr.end(id, err != nil, resp.LatencyMS)
	return resp, err
}

// tracedModel decorates a replica's *wisdom.Model: every prediction entry
// point the serve ladder can pick becomes a wisdom.predict span, and the
// engine's queue-wait samples are tallied on their way to the server's
// histogram. The embedded model supplies the stats accessors.
type tracedModel struct {
	*wisdom.Model
	tr *tracer

	mu        sync.Mutex
	waitCount int
	waitSum   float64
}

func (m *tracedModel) span(yamlCtx, prompt string) int64 {
	return m.tr.begin("wisdom.predict", "router.forward", contentKey(yamlCtx, prompt))
}

func (m *tracedModel) Predict(yamlCtx, prompt string) string {
	id := m.span(yamlCtx, prompt)
	defer m.tr.end(id, false, 0)
	return m.Model.Predict(yamlCtx, prompt)
}

func (m *tracedModel) PredictBatch(contexts, prompts []string) []string {
	ids := make([]int64, len(prompts))
	for i := range prompts {
		ids[i] = m.span(contexts[i], prompts[i])
	}
	out := m.Model.PredictBatch(contexts, prompts)
	for _, id := range ids {
		m.tr.end(id, false, 0)
	}
	return out
}

func (m *tracedModel) PredictStream(ctx context.Context, yamlCtx, prompt string, emit func(string)) string {
	id := m.span(yamlCtx, prompt)
	defer m.tr.end(id, false, 0)
	return m.Model.PredictStream(ctx, yamlCtx, prompt, emit)
}

func (m *tracedModel) PredictSession(sessionID, yamlCtx, prompt string) string {
	id := m.span(yamlCtx, prompt)
	defer m.tr.end(id, false, 0)
	return m.Model.PredictSession(sessionID, yamlCtx, prompt)
}

func (m *tracedModel) PredictStreamSession(ctx context.Context, sessionID, yamlCtx, prompt string, emit func(string)) string {
	id := m.span(yamlCtx, prompt)
	defer m.tr.end(id, false, 0)
	return m.Model.PredictStreamSession(ctx, sessionID, yamlCtx, prompt, emit)
}

func (m *tracedModel) PredictSched(ctx context.Context, yamlCtx, prompt string) (string, error) {
	id := m.span(yamlCtx, prompt)
	out, err := m.Model.PredictSched(ctx, yamlCtx, prompt)
	m.tr.end(id, err != nil, 0)
	return out, err
}

func (m *tracedModel) PredictStreamSched(ctx context.Context, yamlCtx, prompt string, emit func(string)) (string, error) {
	id := m.span(yamlCtx, prompt)
	out, err := m.Model.PredictStreamSched(ctx, yamlCtx, prompt, emit)
	m.tr.end(id, err != nil, 0)
	return out, err
}

// SetSchedQueueWaitObserver chains the server's observer behind a tally.
func (m *tracedModel) SetSchedQueueWaitObserver(fn func(waitSeconds float64)) {
	m.Model.SetSchedQueueWaitObserver(func(w float64) {
		m.mu.Lock()
		m.waitCount++
		m.waitSum += w
		m.mu.Unlock()
		if fn != nil {
			fn(w)
		}
	})
}

// queueWait returns the tallied engine queue waits.
func (m *tracedModel) queueWait() (n int, sumSeconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waitCount, m.waitSum
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer    string  `json:"layer"`
	Count    int     `json:"count"`
	BusyMS   float64 `json:"busy_ms"`
	WaitMS   float64 `json:"wait_ms"`
	SelfMS   float64 `json:"self_ms"`
	Failures int     `json:"failures"`
}

// printLayerTable writes the per-layer table.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-18s %8s %12s %12s %12s %8s\n", "layer", "count", "busy_ms", "wait_ms", "self_ms", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8d %12.1f %12.1f %12.1f %8d\n", r.Layer, r.Count, r.BusyMS, r.WaitMS, r.SelfMS, r.Failures)
	}
}

// spanSums totals a layer's spans: count, busy milliseconds, reported
// milliseconds and failures.
func spanSums(spans []span) (n int, busyMS, reportedMS float64, fails int) {
	for _, s := range spans {
		n++
		busyMS += float64(s.DurUS) / 1000
		reportedMS += s.ReportedMS
		if s.Fail {
			fails++
		}
	}
	return n, busyMS, reportedMS, fails
}
