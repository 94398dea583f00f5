package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wisdom/internal/ansible"
	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/router"
	"wisdom/internal/tokenizer"
	"wisdom/internal/yaml"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits lists every end-to-end metric and its unit, in print order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ttft_p50_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"tokens_per_s", "tok/s"},
	{"slo_attainment", "ratio"},
	{"schema_correct", "%"},
	{"mem_peak_mb", "MB"},
}

// layerUnits lists every per-layer metric and its unit, in print order.
var layerUnits = []struct{ name, unit string }{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lag_p90_ms", "ms"},
	{"serve.front.cache_hit_ratio", "ratio"},
	{"serve.front.coalesced_ratio", "ratio"},
	{"serve.front.self_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.replica.self_ms", "ms"},
	{"router.forward_ms", "ms"},
	{"router.hop_ms", "ms"},
	{"router.spillovers", "count"},
	{"router.session_moves", "count"},
	{"router.affinity_ratio", "ratio"},
	{"router.backend_share_max", "ratio"},
	{"wisdom.predict_ms", "ms"},
	{"wisdom.self_ms", "ms"},
	{"wisdom.ansible_aware", "%"},
	{"wisdom.exact_match", "%"},
	{"verify.reference_unstable", "count"},
	{"tokenizer.encode_ms", "ms"},
	{"ansible.validate_ms", "ms"},
	{"neural.step_ms", "ms"},
	{"neural.steps_per_request", "count"},
	{"neural.prefill_tokens", "count"},
	{"neural.gen_tokens", "count"},
	{"neural.engine.rows_per_step", "count"},
	{"neural.engine.occupancy", "ratio"},
	{"neural.engine.queue_wait_ms", "ms"},
	{"neural.session.reuse_ratio", "ratio"},
	{"neural.session.evictions", "count"},
	{"neural.session.active", "count"},
	{"tracing.untraced_p50_ms", "ms"},
	{"tracing.traced_p50_ms", "ms"},
	{"tracing.overhead_pct", "%"},
}

// e2eSummary is one phase's end-to-end view.
type e2eSummary struct {
	metrics map[string]float64
	// tailQ are the percentiles reported under the p90 names.
	ttftQ, latencyQ float64
	// ttft90 is the TTFT tail. It is printed with the report but is not a
	// bounded metric: on keystroke it swings by more than a quarter between
	// seeds on a shared host (see README.md).
	ttft90  float64
	n       int
	quality quality
}

// endToEnd computes the end-to-end metrics of a phase. setupS and memMB are
// measured by the caller.
func endToEnd(ph phase, tok *tokenizer.Tokenizer, sloMS, setupS, memMB float64) e2eSummary {
	var lat, ttft []float64
	var met, tokens int
	for _, r := range ph.Records {
		if !r.OK {
			continue
		}
		lat = append(lat, r.LatencyMS)
		ttft = append(ttft, r.TTFTMS)
		if r.LatencyMS <= sloMS {
			met++
		}
		if !r.Cached && !r.Coalesced {
			_, body, _ := strings.Cut(r.Suggestion, "\n")
			tokens += len(tok.Encode(body))
		}
	}
	secs := ph.Elapsed.Seconds()
	if secs <= 0 {
		secs = math.NaN()
	}
	s := e2eSummary{n: len(lat), quality: score(ph.Records)}
	var lat90 float64
	s.ttftQ, s.ttft90 = tailPercentile(ttft)
	s.latencyQ, lat90 = tailPercentile(lat)
	s.metrics = map[string]float64{
		"setup_s":        setupS,
		"ttft_p50_ms":    percentile(ttft, 50),
		"latency_p50_ms": percentile(lat, 50),
		"latency_p90_ms": lat90,
		"throughput_rps": float64(len(lat)) / secs,
		"tokens_per_s":   float64(tokens) / secs,
		"slo_attainment": ratio(float64(met), float64(len(ph.Records))),
		"schema_correct": s.quality.SchemaCorrect,
		"mem_peak_mb":    memMB,
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// residentMB returns the process's resident set (VmRSS) in MB, falling
// back to the Go runtime's obtained memory where /proc is unavailable.
func residentMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssSampler tracks the peak resident set while a phase runs. The process's
// own high-water mark (VmHWM) is set by training's garbage and swings with
// GC timing, so the phase samples VmRSS every rssEvery instead.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentMB()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = math.Max(s.peak, residentMB())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return math.Max(s.peak, residentMB())
}

// fleetCounters is a snapshot of the public counters the traced phase reads.
type fleetCounters struct {
	frontHits, frontMisses int
	shedFront, shedReplica uint64
	spillovers, moves      uint64
	backendReqs            map[string]uint64
	steps, rowSteps        uint64
	maxBatch               int
	queueN                 int
	queueS                 float64
}

func snapshot(f *fleet) fleetCounters {
	st := f.front.Stats()
	c := fleetCounters{
		frontHits: st.CacheHits, frontMisses: st.CacheMisses, shedFront: st.ShedRequests,
		spillovers: f.rt.Spillovers(), moves: f.rt.SessionMoves(),
		backendReqs: make(map[string]uint64),
	}
	if fs, ok := f.rt.AggregateStats(st).(router.FleetStats); ok {
		for _, b := range fs.Backends {
			c.backendReqs[b.Addr] = b.Requests
		}
	}
	for _, r := range f.replicas {
		c.shedReplica += r.srv.Stats().ShedRequests
		_, maxBatch, _, _, _, _, steps, rowSteps := r.model.SchedStats()
		c.steps += steps
		c.rowSteps += rowSteps
		c.maxBatch = maxBatch
		if r.traced != nil {
			n, sum := r.traced.queueWait()
			c.queueN += n
			c.queueS += sum
		}
	}
	return c
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	ph              phase
	tr              *tracer
	before, after   fleetCounters
	ins             *neural.Instrumentation
	tok             *tokenizer.Tokenizer
	untraced        e2eSummary
	traced          e2eSummary
	sessionReuse    float64
	sessionEvicted  uint64
	sessionActive   int
	sessionReplicas int
	unstable        int
}

// perLayer computes the per-layer metrics and table of the traced phase.
func perLayer(in layerInputs) (map[string]float64, []layerRow) {
	var sent, ok, failed int
	var lags []float64
	var frontSum, loadBusy, lagSum float64
	var coalesced int
	for _, r := range in.ph.Records {
		sent++
		lag := float64(r.Sent-r.Due) / float64(time.Millisecond)
		lags = append(lags, lag)
		lagSum += lag
		if !r.OK {
			failed++
			continue
		}
		ok++
		frontSum += r.FrontMS
		loadBusy += r.LatencyMS
		if r.Coalesced {
			coalesced++
		}
	}
	_, lag90 := tailPercentile(lags)

	fwdN, fwdBusy, fwdReported, fwdFails := spanSums(in.tr.finished("router.forward"))
	wisN, wisBusy, _, wisFails := spanSums(in.tr.finished("wisdom.predict"))

	gens := float64(in.ins.GenDuration.Count())
	genBusyMS := 1000 * in.ins.GenDuration.Sum()
	decodeSteps := float64(in.ins.DecodeSteps.Value())
	genTokens := float64(in.ins.GenTokens.Value())
	queueN := in.after.queueN - in.before.queueN
	queueMS := 1000 * (in.after.queueS - in.before.queueS)

	encN, encMS, valN, valMS := timeEncodeValidate(in.ph.Records, in.tok)

	b, a := in.before, in.after
	dSteps := float64(a.steps - b.steps)
	dRows := float64(a.rowSteps - b.rowSteps)
	var backendTotal, backendMax float64
	for addr, n := range a.backendReqs {
		d := float64(n - b.backendReqs[addr])
		backendTotal += d
		backendMax = math.Max(backendMax, d)
	}
	dSpill := float64(a.spillovers - b.spillovers)
	dHits := float64(a.frontHits - b.frontHits)
	dMisses := float64(a.frontMisses - b.frontMisses)

	m := map[string]float64{
		"loadgen.sent":                float64(sent),
		"loadgen.ok":                  float64(ok),
		"loadgen.failed":              float64(failed),
		"loadgen.lag_p90_ms":          lag90,
		"serve.front.cache_hit_ratio": ratio(dHits, dHits+dMisses),
		"serve.front.coalesced_ratio": ratio(float64(coalesced), float64(ok)),
		"serve.front.self_ms":         ratio(frontSum-fwdBusy, float64(ok)),
		"serve.shed":                  float64(a.shedFront - b.shedFront + a.shedReplica - b.shedReplica),
		"serve.replica.self_ms":       ratio(fwdReported-wisBusy, float64(fwdN)),
		"router.forward_ms":           ratio(fwdBusy, float64(fwdN)),
		"router.hop_ms":               ratio(fwdBusy-fwdReported, float64(fwdN)),
		"router.spillovers":           dSpill,
		"router.session_moves":        float64(a.moves - b.moves),
		"router.affinity_ratio":       ratio(float64(fwdN)-dSpill, float64(fwdN)),
		"router.backend_share_max":    ratio(backendMax, backendTotal),
		"wisdom.predict_ms":           ratio(wisBusy, float64(wisN)),
		"wisdom.self_ms":              ratio(wisBusy-genBusyMS-queueMS, float64(wisN)),
		"wisdom.ansible_aware":        in.traced.quality.AnsibleAware,
		"wisdom.exact_match":          in.traced.quality.ExactMatch,
		"verify.reference_unstable":   float64(in.unstable),
		"tokenizer.encode_ms":         ratio(encMS, float64(encN)),
		"ansible.validate_ms":         ratio(valMS, float64(valN)),
		"neural.step_ms":              ratio(1000*in.ins.StepDuration.Sum(), float64(in.ins.StepDuration.Count())),
		"neural.steps_per_request":    ratio(decodeSteps, gens),
		"neural.prefill_tokens":       ratio(decodeSteps-genTokens, gens),
		"neural.gen_tokens":           ratio(genTokens, gens),
		"neural.engine.rows_per_step": ratio(dRows, dSteps),
		"neural.engine.occupancy":     ratio(dRows, dSteps*float64(a.maxBatch)),
		"neural.engine.queue_wait_ms": ratio(queueMS, float64(queueN)),
		"neural.session.reuse_ratio":  ratio(in.sessionReuse, float64(in.sessionReplicas)),
		"neural.session.evictions":    float64(in.sessionEvicted),
		"neural.session.active":       float64(in.sessionActive),
		"tracing.untraced_p50_ms":     in.untraced.metrics["latency_p50_ms"],
		"tracing.traced_p50_ms":       in.traced.metrics["latency_p50_ms"],
		"tracing.overhead_pct": 100 * ratio(in.traced.metrics["latency_p50_ms"]-in.untraced.metrics["latency_p50_ms"],
			in.untraced.metrics["latency_p50_ms"]),
	}

	rows := []layerRow{
		{Layer: "loadgen", Count: sent, BusyMS: loadBusy, WaitMS: lagSum, SelfMS: loadBusy - frontSum, Failures: failed},
		{Layer: "serve.front", Count: ok, BusyMS: frontSum, SelfMS: frontSum - fwdBusy, Failures: int(a.shedFront - b.shedFront)},
		{Layer: "router.forward", Count: fwdN, BusyMS: fwdBusy, WaitMS: fwdBusy - fwdReported, SelfMS: fwdBusy - fwdReported, Failures: fwdFails},
		{Layer: "serve.replica", Count: fwdN, BusyMS: fwdReported, SelfMS: fwdReported - wisBusy, Failures: int(a.shedReplica - b.shedReplica)},
		{Layer: "wisdom.predict", Count: wisN, BusyMS: wisBusy, WaitMS: queueMS, SelfMS: wisBusy - genBusyMS - queueMS, Failures: wisFails},
		{Layer: "neural.generate", Count: int(gens), BusyMS: genBusyMS, SelfMS: genBusyMS},
		{Layer: "tokenizer.encode", Count: encN, BusyMS: encMS, SelfMS: encMS},
		{Layer: "ansible.validate", Count: valN, BusyMS: valMS, SelfMS: valMS},
	}
	return m, rows
}

// timeEncodeValidate times the tokenizer and the schema validator on the
// phase's own inputs: each served request's rendered prompt is encoded, and
// each suggestion parsed and validated after de-indenting, through the same
// public calls the wisdom layer makes.
func timeEncodeValidate(recs []record, tok *tokenizer.Tokenizer) (encN int, encMS float64, valN int, valMS float64) {
	v := ansible.NewValidator()
	for _, r := range recs {
		if !r.OK {
			continue
		}
		indent := taskIndent(r.Req.Context)
		input := r.Req.Context + strings.Repeat(" ", indent) + "- name: " + r.Req.Prompt + "\n"
		t0 := time.Now()
		tok.Encode(input)
		encMS += msSince(t0)
		encN++
		doc := dataset.StripIndent(r.Suggestion, indent)
		t0 = time.Now()
		if n, err := yaml.Parse(doc); err == nil {
			v.Valid(n)
		}
		valMS += msSince(t0)
		valN++
	}
	return encN, encMS, valN, valMS
}
