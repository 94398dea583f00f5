package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"wisdom/internal/dataset"
	"wisdom/internal/metrics"
	"wisdom/internal/wisdom"
)

// mismatch is one served answer the gate rejected.
type mismatch struct {
	Req    request
	Reason string
}

// referenceTries bounds how many solo Predict calls the gate makes for one
// input before it rejects a served answer as no answer the model gives.
const referenceTries = 32

// verdict is the gate's outcome over one run's records.
type verdict struct {
	Mismatches []mismatch
	// Unstable lists inputs on which solo Predict itself returned more than
	// one answer (see README.md, "Known defect").
	Unstable []request
}

// verify is the correctness gate. Every served suggestion must byte-equal
// an answer solo Model.Predict gives for the same (context, prompt) on a
// model with neither sessions nor the scheduler, which also makes every
// session answer equal to the stateless one; and a stream's concatenated
// deltas must equal its final suggestion unless the stream reported
// replaced.
//
// Solo Predict is computed once per distinct input on workers goroutines.
// It is not deterministic on every input — the retrieval fallback can order
// near-tied memory entries differently from call to call — so when a served
// answer differs, the gate calls solo Predict again, up to referenceTries
// times, and accepts the served answer only if the model produces it solo.
// Each such input is reported as unstable.
func verify(ref *wisdom.Model, recs []record, workers int) verdict {
	var keys []string
	reqs := make(map[string]request)
	for _, r := range recs {
		if !r.OK {
			continue
		}
		if _, ok := reqs[r.Req.key()]; !ok {
			reqs[r.Req.key()] = r.Req
			keys = append(keys, r.Req.key())
		}
	}
	answers := make([]string, len(keys))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				rq := reqs[keys[i]]
				answers[i] = ref.Predict(rq.Context, rq.Prompt)
			}
		}()
	}
	wg.Wait()
	solo := make(map[string]map[string]bool, len(keys))
	for i, k := range keys {
		solo[k] = map[string]bool{answers[i]: true}
	}

	var v verdict
	unstable := make(map[string]bool)
	for _, r := range recs {
		if !r.OK {
			continue
		}
		k := r.Req.key()
		for tries := 1; !solo[k][r.Suggestion] && tries < referenceTries; tries++ {
			solo[k][ref.Predict(r.Req.Context, r.Req.Prompt)] = true
		}
		if len(solo[k]) > 1 && !unstable[k] {
			unstable[k] = true
			v.Unstable = append(v.Unstable, r.Req)
		}
		if !solo[k][r.Suggestion] {
			v.Mismatches = append(v.Mismatches, mismatch{r.Req,
				fmt.Sprintf("served %q; solo Predict gave %d other answers in %d calls", r.Suggestion, len(solo[k]), referenceTries)})
			continue
		}
		if r.Streamed && !r.Replaced && r.Deltas != r.Suggestion {
			v.Mismatches = append(v.Mismatches, mismatch{r.Req, fmt.Sprintf("deltas %q do not concatenate to %q", r.Deltas, r.Suggestion)})
		}
	}
	return v
}

// quality holds the paper's metrics over one phase's served answers.
type quality struct {
	SchemaCorrect float64 // % of suggestions that parse and pass the strict schema
	AnsibleAware  float64 // mean Ansible Aware score, %
	ExactMatch    float64 // % of bodies equal to the target
	Scored        int     // suggestions with a target
	Checked       int     // suggestions schema-checked
}

// taskIndent is the indentation Predict gives a suggestion's name line.
func taskIndent(yamlCtx string) int {
	if strings.Contains(yamlCtx, "tasks:") {
		return 4
	}
	return 0
}

// score computes the quality metrics the way wisdom.Evaluate does: Schema
// Correct on the de-indented suggestion, Exact Match on the body against the
// sample's target, and Ansible Aware on the reassembled single-task
// documents. Only requests with a target (complete prompts) are scored
// against one.
func score(recs []record) quality {
	ev := metrics.NewEvaluator()
	aware := metrics.NewAnsibleAware()
	var q quality
	var valid, exact int
	var awareSum float64
	for _, r := range recs {
		if !r.OK {
			continue
		}
		indent := taskIndent(r.Req.Context)
		q.Checked++
		if ev.SchemaCorrect(dataset.StripIndent(r.Suggestion, indent)) {
			valid++
		}
		if r.Req.Target == "" {
			continue
		}
		q.Scored++
		nameLine, body, _ := strings.Cut(r.Suggestion, "\n")
		if metrics.ExactMatch(body, r.Req.Target) {
			exact++
		}
		awareSum += aware.Score(
			dataset.StripIndent(nameLine+"\n"+body, indent),
			dataset.StripIndent(nameLine+"\n"+r.Req.Target, indent))
	}
	if q.Checked > 0 {
		q.SchemaCorrect = 100 * float64(valid) / float64(q.Checked)
	}
	if q.Scored > 0 {
		q.ExactMatch = 100 * float64(exact) / float64(q.Scored)
		q.AnsibleAware = 100 * awareSum / float64(q.Scored)
	}
	return q
}
