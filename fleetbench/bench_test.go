package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
)

func TestPlansDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.build(3, 2, 0.5)
		b := w.build(3, 2, 0.5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed built two different request lists", w.name)
		}
		if reflect.DeepEqual(a, w.build(4, 2, 0.5)) {
			t.Errorf("%s: seeds 3 and 4 built the same request list", w.name)
		}
		if len(a.Sessions)+len(a.Requests)+len(a.Arrivals) == 0 {
			t.Errorf("%s: empty plan", w.name)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	ks := buildKeystroke(1, 2, 0.5)
	if len(ks.Sessions) != 2 {
		t.Fatalf("keystroke: %d sessions, want one per connection", len(ks.Sessions))
	}
	for _, list := range ks.Sessions {
		if len(list) < int(maxConnRate*0.5) {
			t.Errorf("keystroke session has %d requests, want at least %d", len(list), int(maxConnRate*0.5))
		}
	}
	ds := buildDataset(1, 2, 0.5)
	seen := make(map[string]bool)
	types := make(map[dataset.GenType]bool)
	for _, r := range ds.Requests {
		if seen[r.key()] {
			t.Fatalf("dataset_unary repeats request %q", r.Prompt)
		}
		seen[r.key()] = true
		types[r.Type] = true
	}
	if len(types) != 4 {
		t.Errorf("dataset_unary mixes %d generation types, want 4", len(types))
	}
	pp := buildPopular(1, 2, 5)
	if len(pp.Pool) != poolSize || poolSize <= frontCache {
		t.Errorf("popular pool has %d intents, want %d > front cache %d", len(pp.Pool), poolSize, frontCache)
	}
	for i := 1; i < len(pp.Arrivals); i++ {
		if pp.Arrivals[i].Due < pp.Arrivals[i-1].Due {
			t.Fatal("popular arrivals out of order")
		}
	}
	if rate := float64(len(pp.Arrivals)) / 5; rate < popularRate*0.7 || rate > popularRate*1.3 {
		t.Errorf("popular arrival rate %.1f/s, want about %d/s", rate, popularRate)
	}
	if len(pp.Warm) != popularWarm {
		t.Errorf("popular warm-up sends %d requests, want %d", len(pp.Warm), popularWarm)
	}
	for _, i := range pp.Warm {
		if i < 0 || i >= len(pp.Pool) {
			t.Fatalf("popular warm-up index %d outside the pool", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{20, 1}, {50, 3}, {60, 3}, {61, 4}, {100, 5}} {
		if got := percentile(vals, c.q); got != c.want {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Error("median wrong")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n        int
		q, value float64
	}{
		{1000, 90, 900},
		{100, 90, 90}, // exactly ten samples beyond p90
		{50, 80, 40},  // p90 would leave five beyond it
		{40, 75, 30},
		{12, 50, 6}, // never reported below the median
	} {
		q, v := tailPercentile(seq(c.n))
		if q != c.q || v != c.value {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", c.n, q, v, c.q, c.value)
		}
		if beyond := c.n - int(v); c.q > 50 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := make(map[string]string)
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	tok := tinyTokenizer(t)
	recs := []record{{Req: request{Prompt: "Install nginx", Target: "  ansible.builtin.apt:\n    name: nginx\n"},
		OK: true, LatencyMS: 3, TTFTMS: 1, Suggestion: "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n"}}
	ph := phase{Records: recs, Elapsed: time.Second}
	e2e := endToEnd(ph, tok, 1000, 1, 1).metrics
	layers, _ := perLayer(layerInputs{
		ph: ph, tr: newTracer(), ins: neural.NewInstrumentation(observe.NewRegistry()), tok: tok,
		before: fleetCounters{backendReqs: map[string]uint64{}}, after: fleetCounters{backendReqs: map[string]uint64{}},
	})

	for _, c := range []struct {
		what     string
		emitted  map[string]float64
		units    []struct{ name, unit string }
		declared map[string]string
	}{
		{"end_to_end", e2e, e2eUnits, declared(bf.EndToEnd)},
		{"per_layer", layers, layerUnits, declared(bf.PerLayer)},
	} {
		if len(c.emitted) != len(c.units) || len(c.declared) != len(c.units) {
			t.Errorf("%s: %d emitted, %d listed, %d declared in BENCHMARK.json", c.what, len(c.emitted), len(c.units), len(c.declared))
		}
		for _, u := range c.units {
			if !nameRE.MatchString(u.name) {
				t.Errorf("%s metric %q is not a valid name", c.what, u.name)
			}
			if _, ok := c.emitted[u.name]; !ok {
				t.Errorf("%s metric %q is listed but not emitted", c.what, u.name)
			}
			if unit, ok := c.declared[u.name]; !ok || unit != u.unit {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json declares %q (declared=%v)", c.what, u.name, u.unit, unit, ok)
			}
		}
	}
}

func tinyTokenizer(t *testing.T) *tokenizer.Tokenizer {
	t.Helper()
	tok, err := tokenizer.Train([]string{"- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n"}, 300)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestGateRejectsWrongAnswers(t *testing.T) {
	tok := tinyTokenizer(t)
	nm, err := neural.NewModel(neural.Config{Vocab: tok.VocabSize(), Ctx: 64, Dim: 16, Heads: 2, Layers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := &wisdom.Model{Name: "tiny", Tok: tok, LM: &wisdom.NeuralLM{Model: nm}, CtxWindow: 64,
		Style: dataset.NameCompletion, MaxNewTask: 16}
	rq := request{Prompt: "Install nginx"}
	good := m.Predict(rq.Context, rq.Prompt)
	name, _, _ := strings.Cut(good, "\n")
	name += "\n"

	ok := []record{
		{Req: rq, OK: true, Suggestion: good},
		{Req: rq, OK: true, Suggestion: good, Streamed: true, Deltas: good},
		{Req: rq, OK: true, Suggestion: good, Streamed: true, Deltas: name, Replaced: true},
		{Req: rq, Err: "shed"},
	}
	if v := verify(m, ok, 2); len(v.Mismatches) != 0 {
		t.Errorf("gate rejected correct answers: %+v", v.Mismatches)
	}
	bad := []record{
		{Req: rq, OK: true, Suggestion: good + "  become: true\n"},
		{Req: rq, OK: true, Suggestion: good, Streamed: true, Deltas: name + "  become: true\n"},
	}
	if v := verify(m, bad, 2); len(v.Mismatches) != len(bad) {
		t.Errorf("gate found %d of %d wrong answers", len(v.Mismatches), len(bad))
	}
}
