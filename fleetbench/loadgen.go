package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisdom/internal/serve"
)

// record is one request as the load generator saw it. Times are offsets
// from the phase start; latency and TTFT run from Due (the open loop's
// schedule) or Sent (closed loops, where Due == Sent).
type record struct {
	Req       request
	Due       time.Duration
	Sent      time.Duration
	LatencyMS float64
	TTFTMS    float64
	OK        bool
	Err       string
	// Suggestion is the final answer; Deltas the concatenated streamed text.
	Suggestion string
	Streamed   bool
	Deltas     string
	Replaced   bool
	Cached     bool
	Coalesced  bool
	// FrontMS is the front server's reported handling time.
	FrontMS float64
}

// phase is one measured run of a workload against a fleet.
type phase struct {
	Records []record
	Elapsed time.Duration
}

// sender sends one workload's plan to a fleet for the given duration.
type sender func(ctx context.Context, f *fleet, p plan, conns int, seed int64, d time.Duration, tr *tracer) phase

func senderFor(name string) sender {
	switch name {
	case "keystroke":
		return driveKeystroke
	case "dataset_unary":
		return driveDataset
	default:
		return drivePopular
	}
}

// newHTTPClient is one editor's keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// collector gathers records from the connection goroutines.
type collector struct {
	mu   sync.Mutex
	recs []record
	last time.Duration
}

func (c *collector) add(r record, end time.Duration) {
	c.mu.Lock()
	c.recs = append(c.recs, r)
	if end > c.last {
		c.last = end
	}
	c.mu.Unlock()
}

// driveKeystroke runs one closed-loop editor session per connection, each on
// its own keep-alive HTTP connection to the SSE endpoint. Session IDs are
// drawn in order until the sessions split evenly across the replicas, as
// they would over a large editor population; two hashed IDs alone often
// land on one replica and make runs incomparable.
func driveKeystroke(ctx context.Context, f *fleet, p plan, _ int, seed int64, d time.Duration, tr *tracer) phase {
	ids := balancedSessions(f, seed, len(p.Sessions))
	start := time.Now()
	var col collector
	var wg sync.WaitGroup
	for i, list := range p.Sessions {
		wg.Add(1)
		go func(sid string, list []request) {
			defer wg.Done()
			client := newHTTPClient()
			defer client.CloseIdleConnections()
			for _, rq := range list {
				if time.Since(start) >= d || ctx.Err() != nil {
					return
				}
				sent := time.Since(start)
				id := tr.begin("loadgen", "", rq.key())
				rec := streamSSE(ctx, client, f.httpURL, rq, sid)
				rec.Due, rec.Sent = sent, sent
				tr.end(id, !rec.OK, rec.FrontMS)
				col.add(rec, time.Since(start))
			}
		}(ids[i], list)
	}
	wg.Wait()
	return phase{Records: col.recs, Elapsed: col.last}
}

// balancedSessions picks n session IDs whose ring owners spread evenly over
// the replicas, settling for any live owner after maxSessionDraws draws.
const maxSessionDraws = 1000

func balancedSessions(f *fleet, seed int64, n int) []string {
	perOwner := make(map[string]int)
	limit := (n + len(f.replicas) - 1) / len(f.replicas)
	var ids []string
	for i := 0; len(ids) < n; i++ {
		id := sessionID(seed, i)
		owner, ok := f.rt.Owner(serve.Request{SessionID: id})
		if balanced := i < maxSessionDraws; !ok || (balanced && perOwner[owner] >= limit) {
			continue
		}
		perOwner[owner]++
		ids = append(ids, id)
	}
	return ids
}

// streamSSE sends one streamed request and reads its events. TTFT is the
// first event carrying generated text: the first delta only echoes the name
// line, so it counts only when it carries more (a cached answer), and when no
// body delta comes at all the terminal event carries the answer.
func streamSSE(ctx context.Context, client *http.Client, url string, rq request, sid string) record {
	rec := record{Req: rq, Streamed: true}
	body, err := json.Marshal(serve.Request{Prompt: rq.Prompt, Context: rq.Context, SessionID: sid})
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/completions/stream", bytes.NewReader(body))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		rec.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return rec
	}
	var deltas strings.Builder
	first := func() {
		if rec.TTFTMS == 0 {
			rec.TTFTMS = msSince(start)
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case serve.StreamDelta:
				var d struct {
					Text string `json:"text"`
				}
				if err := json.Unmarshal(data, &d); err != nil {
					rec.Err = "bad delta: " + err.Error()
					return rec
				}
				deltas.WriteString(d.Text)
				if s := deltas.String(); strings.IndexByte(s, '\n') < len(s)-1 {
					first()
				}
			case serve.StreamDone:
				var final serve.Response
				if err := json.Unmarshal(data, &final); err != nil {
					rec.Err = "bad done event: " + err.Error()
					return rec
				}
				first()
				rec.LatencyMS = msSince(start)
				rec.OK = true
				rec.Suggestion, rec.Replaced, rec.Cached = final.Suggestion, final.Replaced, final.Cached
				rec.FrontMS = final.LatencyMS
				rec.Deltas = deltas.String()
				return rec
			case serve.StreamError:
				rec.Err = "stream error: " + string(data)
				return rec
			}
		}
	}
	if err := sc.Err(); err != nil {
		rec.Err = err.Error()
	} else {
		rec.Err = "stream ended without a terminal event"
	}
	return rec
}

// driveDataset runs one closed-loop RPC connection per connection slot; the
// connections share one cursor over the distinct request list.
func driveDataset(ctx context.Context, f *fleet, p plan, conns int, _ int64, d time.Duration, tr *tracer) phase {
	start := time.Now()
	var next atomic.Int64
	var col collector
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *serve.Client
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for time.Since(start) < d && ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				if idx >= len(p.Requests) {
					return
				}
				rq := p.Requests[idx]
				sent := time.Since(start)
				rec := record{Req: rq, Due: sent, Sent: sent}
				if c == nil || c.Broken() {
					if c != nil {
						c.Close()
					}
					var err error
					if c, err = serve.Dial(f.rpcAddr); err != nil {
						c = nil
						rec.Err = err.Error()
						col.add(rec, time.Since(start))
						continue
					}
				}
				id := tr.begin("loadgen", "", rq.key())
				t0 := time.Now()
				resp, err := c.Predict(serve.Request{Prompt: rq.Prompt, Context: rq.Context})
				rec.LatencyMS = msSince(t0)
				rec.TTFTMS = rec.LatencyMS
				if err != nil {
					rec.Err = err.Error()
				} else {
					rec.OK = true
					rec.Suggestion, rec.Cached, rec.Coalesced, rec.FrontMS = resp.Suggestion, resp.Cached, resp.Coalesced, resp.LatencyMS
				}
				tr.end(id, !rec.OK, rec.FrontMS)
				col.add(rec, time.Since(start))
			}
		}()
	}
	wg.Wait()
	return phase{Records: col.recs, Elapsed: col.last}
}

// drivePopular is the open loop: arrivals are taken in schedule order by
// whichever connection is free, each waits for its due time, and latency
// runs from the due time, so a stall shows on every request behind it.
func drivePopular(ctx context.Context, f *fleet, p plan, conns int, _ int64, d time.Duration, tr *tracer) phase {
	start := time.Now()
	var next atomic.Int64
	var col collector
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newHTTPClient()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				if idx >= len(p.Arrivals) || p.Arrivals[idx].Due >= d {
					return
				}
				a := p.Arrivals[idx]
				if wait := a.Due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				rq := p.Pool[a.Idx]
				sent := time.Since(start)
				id := tr.begin("loadgen", "", rq.key())
				rec := postUnary(ctx, client, f.httpURL, rq)
				rec.Due, rec.Sent = a.Due, sent
				if rec.OK {
					rec.LatencyMS += float64(sent-a.Due) / float64(time.Millisecond)
					rec.TTFTMS = rec.LatencyMS
				}
				tr.end(id, !rec.OK, rec.FrontMS)
				col.add(rec, time.Since(start))
			}
		}()
	}
	wg.Wait()
	return phase{Records: col.recs, Elapsed: col.last}
}

// postUnary sends one unary HTTP request; LatencyMS runs from the send.
func postUnary(ctx context.Context, client *http.Client, url string, rq request) record {
	rec := record{Req: rq}
	body, err := json.Marshal(serve.Request{Prompt: rq.Prompt, Context: rq.Context})
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/completions", bytes.NewReader(body))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	if resp.StatusCode != http.StatusOK {
		rec.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return rec
	}
	var out serve.Response
	if err := json.Unmarshal(data, &out); err != nil {
		rec.Err = "bad response: " + err.Error()
		return rec
	}
	rec.LatencyMS = msSince(start)
	rec.OK = true
	rec.Suggestion, rec.Cached, rec.Coalesced, rec.FrontMS = out.Suggestion, out.Cached, out.Coalesced, out.LatencyMS
	return rec
}

// warmUp sends each connection's path a few requests outside the measured
// key space: connections open, the engines and session caches allocate, and
// the router's pools fill before the first timed request.
func warmUp(ctx context.Context, f *fleet, name string, conns int) error {
	reqs := warmupRequests(2 * conns)
	switch name {
	case "keystroke":
		client := newHTTPClient()
		defer client.CloseIdleConnections()
		for i, rq := range reqs {
			if rec := streamSSE(ctx, client, f.httpURL, rq, fmt.Sprintf("warmup-%d", i%conns)); !rec.OK {
				return fmt.Errorf("warm-up stream: %s", rec.Err)
			}
		}
	case "dataset_unary":
		c, err := serve.Dial(f.rpcAddr)
		if err != nil {
			return fmt.Errorf("warm-up dial: %w", err)
		}
		defer c.Close()
		for _, rq := range reqs {
			if _, err := c.Predict(serve.Request{Prompt: rq.Prompt, Context: rq.Context}); err != nil {
				return fmt.Errorf("warm-up predict: %w", err)
			}
		}
	default:
		client := newHTTPClient()
		defer client.CloseIdleConnections()
		for _, rq := range reqs {
			if rec := postUnary(ctx, client, f.httpURL, rq); !rec.OK {
				return fmt.Errorf("warm-up request: %s", rec.Err)
			}
		}
	}
	return nil
}

// prime sends a plan's warm-up requests (popular_prompts) before timing
// starts, closed-loop over conns HTTP connections, so the measured phase
// begins with the caches the same traffic would have filled. It returns the
// answers for the correctness gate; plans without warm-up send nothing.
func prime(ctx context.Context, f *fleet, p plan, conns int) ([]record, error) {
	var next atomic.Int64
	var col collector
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newHTTPClient()
			defer client.CloseIdleConnections()
			for idx := int(next.Add(1) - 1); idx < len(p.Warm) && ctx.Err() == nil; idx = int(next.Add(1) - 1) {
				col.add(postUnary(ctx, client, f.httpURL, p.Pool[p.Warm[idx]]), 0)
			}
		}()
	}
	wg.Wait()
	for _, r := range col.recs {
		if !r.OK {
			return nil, fmt.Errorf("warm-up request: %s", r.Err)
		}
	}
	return col.recs, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
