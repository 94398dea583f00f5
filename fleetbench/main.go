// Command fleetbench is the repository's end-to-end benchmark. It trains a
// small transformer-backed wisdom.Model on Galaxy-sim files, runs a fleet in
// this process — two wisdom-serve replicas (scheduler and sessions on)
// behind a router fronted by a stock serve.Server, all on loopback sockets —
// drives it with one named workload, checks every answer against a solo
// Model.Predict, and prints every end-to-end metric (or, with -trace 1,
// every per-layer metric) as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash fleetbench/run.sh --workload keystroke --seed 1 --seconds 10 --trace 0
//
// See fleetbench/README.md for the workloads, the metrics and their meaning.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/wisdom"
)

// errOut receives progress and diagnostics; standard output carries the
// report whose last line is the JSON result.
var errOut io.Writer = os.Stderr

// setupRepeats is how many times an untraced run sets up from scratch; it
// reports the median set-up time and measures on the last fleet.
const setupRepeats = 3

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig records where and how a result was measured.
type runConfig struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	NProc       int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	KernelProcs int         `json:"kernel_procs"`
	Model       modelConfig `json:"model"`
	Replicas    int         `json:"replicas"`
	SLOMS       float64     `json:"slo_ms"`
	Commit      string      `json:"commit"`
	GoVersion   string      `json:"go_version"`
	Host        string      `json:"host"`
}

func main() {
	name := flag.String("workload", "", "workload: keystroke, dataset_unary or popular_prompts")
	seed := flag.Int64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	commit := flag.String("commit", "unknown", "commit the binary was built from")
	outDir := flag.String("out", ".bench_build/fleetbench", "directory for span files")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "fleetbench: need -workload keystroke|dataset_unary|popular_prompts, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	host, _ := os.Hostname()
	cfg := runConfig{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), KernelProcs: neural.KernelProcs(),
		Model: servedModel, Replicas: replicas, SLOMS: w.sloMS,
		Commit: *commit, GoVersion: runtime.Version(), Host: host,
	}
	cfgJSON, _ := json.Marshal(cfg)
	fmt.Printf("config %s\n", cfgJSON)

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, cfg, *outDir)
	} else {
		res, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(errOut, "fleetbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// settle collects the heap and returns freed memory to the OS, so neither a
// set-up nor a measured phase inherits the garbage of what ran before it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// phaseBudget bounds one measured phase beyond its nominal length, so a
// wedged request cannot hold the run past its deadline.
const phaseBudget = 60 * time.Second

// setUp trains the model, brings a fleet up and warms it, reporting how long
// that took.
func setUp(w workload, conns int) (*wisdom.Model, *fleet, float64, error) {
	settle()
	start := time.Now()
	base, err := trainModel(servedModel)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := startFleet(base, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := warmUp(context.Background(), f, w.name, conns); err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return base, f, time.Since(start).Seconds(), nil
}

func runEndToEnd(w workload, cfg runConfig) (result, error) {
	p := w.build(cfg.Seed, cfg.NProc, cfg.Seconds)
	var setups []float64
	var base *wisdom.Model
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		var s float64
		var err error
		if base, f, s, err = setUp(w, cfg.NProc); err != nil {
			return result{}, err
		}
		fmt.Fprintf(errOut, "setup %d: %.2fs\n", i+1, s)
		setups = append(setups, s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.Seconds*float64(time.Second))+2*phaseBudget)
	defer cancel()
	primed, err := prime(ctx, f, p, cfg.NProc)
	if err != nil {
		f.close()
		return result{}, err
	}
	settle()
	rss := startRSS()
	ph := senderFor(w.name)(ctx, f, p, cfg.NProc, cfg.Seed, time.Duration(cfg.Seconds*float64(time.Second)), nil)
	mem := rss.finish()
	f.close()

	sum := endToEnd(ph, base.Tok, w.sloMS, median(setups), mem)
	res := newResult(ph.Records)
	res.Correct, _ = gate(base, append(primed, ph.Records...), cfg.NProc)
	for _, u := range e2eUnits {
		res.Metrics[u.name] = metric{Value: sum.metrics[u.name], Unit: u.unit}
	}
	fmt.Printf("%d requests ok in %.2fs; ttft_p90_ms is p%g and latency_p90_ms is p%g (highest with %d samples beyond it)\n",
		sum.n, ph.Elapsed.Seconds(), sum.ttftQ, sum.latencyQ, minTail)
	fmt.Printf("ttft_p90_ms %.4f ms (reported, not bounded)\n", sum.ttft90)
	printSide(res, sum)
	return res, nil
}

// runTraced measures the workload twice on fresh fleets over one trained
// model, each for half the run: untraced, then with the span decorators and
// the transformer's instrumentation attached. It reports the per-layer
// metrics of the traced half and the difference between the halves as the
// tracing overhead, prints the per-layer table and writes the span file.
func runTraced(w workload, cfg runConfig, outDir string) (result, error) {
	p := w.build(cfg.Seed, cfg.NProc, cfg.Seconds)
	half := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	drive := senderFor(w.name)

	base, fa, setupS, err := setUp(w, cfg.NProc)
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*half+2*phaseBudget)
	defer cancel()
	primedA, err := prime(ctx, fa, p, cfg.NProc)
	if err != nil {
		fa.close()
		return result{}, err
	}
	settle()
	rss := startRSS()
	untracedPh := drive(ctx, fa, p, cfg.NProc, cfg.Seed, half, nil)
	mem := rss.finish()
	fa.close()

	tr := newTracer()
	fb, err := startFleet(base, tr)
	if err != nil {
		return result{}, err
	}
	if err := warmUp(ctx, fb, w.name, cfg.NProc); err != nil {
		fb.close()
		return result{}, err
	}
	primedB, err := prime(ctx, fb, p, cfg.NProc)
	if err != nil {
		fb.close()
		return result{}, err
	}
	settle()
	tr.reset()
	nm := neuralOf(base)
	ins := neural.NewInstrumentation(observe.NewRegistry())
	before := snapshot(fb)
	nm.Instrument(ins)
	tracedPh := drive(ctx, fb, p, cfg.NProc, cfg.Seed, half, tr)
	nm.Instrument(nil)
	after := snapshot(fb)

	in := layerInputs{ph: tracedPh, tr: tr, before: before, after: after, ins: ins, tok: base.Tok}
	for _, r := range fb.replicas {
		if enabled, active, evicted, reuse := r.model.SessionStats(); enabled {
			in.sessionReplicas++
			in.sessionReuse += reuse
			in.sessionEvicted += evicted
			in.sessionActive += active
		}
	}
	fb.close()

	in.untraced = endToEnd(untracedPh, base.Tok, w.sloMS, setupS, mem)
	in.traced = endToEnd(tracedPh, base.Tok, w.sloMS, setupS, mem)
	all := append(append([]record(nil), untracedPh.Records...), tracedPh.Records...)
	res := newResult(all)
	res.Correct, in.unstable = gate(base, append(append(all, primedA...), primedB...), cfg.NProc)
	layers, rows := perLayer(in)
	printSide(res, in.traced)
	for _, u := range layerUnits {
		res.Metrics[u.name] = metric{Value: layers[u.name], Unit: u.unit}
	}

	fmt.Println("per-layer table (traced half):")
	printLayerTable(os.Stdout, rows)
	fmt.Printf("tracing overhead: latency p50 %.3f ms untraced, %.3f ms traced (%+.1f%%)\n",
		layers["tracing.untraced_p50_ms"], layers["tracing.traced_p50_ms"], layers["tracing.overhead_pct"])
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.Seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

// newResult counts attempts and failures over the measured records.
func newResult(recs []record) result {
	res := result{Attempted: len(recs), Metrics: make(map[string]metric)}
	for _, r := range recs {
		if !r.OK {
			res.Failed++
		}
	}
	return res
}

// printSide prints the outcomes the result line carries only as counts:
// the error ratio, and the paper's quality metrics, which vary with the
// seed's inputs too much to bound (see README.md).
func printSide(res result, s e2eSummary) {
	fmt.Printf("error_ratio %.4f (failed %d of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Printf("exact_match %.2f %% and ansible_aware %.2f %% over %d suggestions with a target; schema_correct over %d\n",
		s.quality.ExactMatch, s.quality.AnsibleAware, s.quality.Scored, s.quality.Checked)
}

// gate runs the correctness check and reports what it found: whether every
// served answer passed, and on how many inputs solo Predict was unstable.
func gate(ref *wisdom.Model, recs []record, workers int) (bool, int) {
	v := verify(ref, recs, workers)
	for i, m := range v.Mismatches {
		if i == 5 {
			fmt.Fprintf(errOut, "... and %d more mismatches\n", len(v.Mismatches)-i)
			break
		}
		fmt.Fprintf(errOut, "MISMATCH prompt %q: %s\n", m.Req.Prompt, m.Reason)
	}
	for _, r := range recs {
		if !r.OK {
			fmt.Fprintf(errOut, "FAILED prompt %q: %s\n", r.Req.Prompt, r.Err)
		}
	}
	for _, rq := range v.Unstable {
		fmt.Fprintf(errOut, "UNSTABLE solo Predict gives more than one answer for prompt %q\n", rq.Prompt)
	}
	fmt.Printf("gate: %d mismatches; solo Predict unstable on %d inputs\n", len(v.Mismatches), len(v.Unstable))
	return len(v.Mismatches) == 0, len(v.Unstable)
}

// printResult prints every metric by name with its unit, then the JSON
// result as the last line.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a metric without samples reads 0 and the
			// run is not counted as correct.
			fmt.Fprintf(errOut, "metric %s has no value\n", n)
			m.Value, res.Metrics[n], res.Correct = 0, metric{Unit: m.Unit}, false
		}
		fmt.Printf("%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}
