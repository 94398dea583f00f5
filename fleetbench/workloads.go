package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"wisdom/internal/corpus"
	"wisdom/internal/dataset"
)

// request is one completion request the load generator sends. Target is the
// reference body the request's sample was extracted with; it is empty when
// the prompt is not a complete task name (a keystroke mid-word), and such
// requests are left out of the quality metrics.
type request struct {
	Context string
	Prompt  string
	Target  string
	Type    dataset.GenType
}

// key is the request's content identity, the key the serve caches use.
func (r request) key() string { return r.Context + "\x00" + r.Prompt }

// arrival is one open-loop request: due is its offset from the phase start,
// idx its position in the intent pool.
type arrival struct {
	Due time.Duration
	Idx int
}

// plan is everything a workload sends, generated from the workload seed
// before any part of the system is built.
type plan struct {
	// Sessions holds one typed request sequence per editor session
	// (keystroke).
	Sessions [][]request
	// Requests is the distinct request list shared by the closed-loop
	// connections (dataset_unary).
	Requests []request
	// Pool and Arrivals describe the open loop (popular_prompts); Warm are
	// the pool indices sent before timing starts, so the caches hold what
	// the same traffic would have left in them.
	Pool     []request
	Arrivals []arrival
	Warm     []int
}

// workload names one traffic mix and how it is generated and driven.
type workload struct {
	name string
	// sloMS is the latency limit slo_attainment is scored against.
	sloMS float64
	// build generates the plan for conns connections running seconds long.
	build func(seed int64, conns int, seconds float64) plan
}

// The workloads. Their reasons are recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "keystroke", sloMS: 1500, build: buildKeystroke},
	{name: "dataset_unary", sloMS: 1000, build: buildDataset},
	{name: "popular_prompts", sloMS: 1000, build: buildPopular},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Request-list sizing. Every request decodes (or waits on a decode) for
// several milliseconds, so a closed-loop connection given maxConnRate
// requests per measured second never runs dry.
const (
	maxConnRate = 150
	// poolSize is the number of distinct intents behind popular_prompts:
	// eight times the front response cache's capacity (wisdom-router -cache
	// 1024), so new intents keep arriving at a steady rate for the whole run.
	poolSize = 8192
	// zipfS skews intent popularity so that, once popularWarm requests have
	// filled the caches, about a third of the requests are misses at every
	// point of a run: the median request is then a cache hit and the 90th
	// percentile a decoding miss, never the boundary between the two. (With
	// a cold cache the miss share falls from about 40% to 15% over a run, and
	// the 90th percentile slides onto that boundary.) popularRate is the
	// open-loop arrival rate in requests per second.
	zipfS       = 1.1
	popularWarm = 800
	popularRate = 25
)

// workloadFiles generates Galaxy-sim files under a workload seed. The seed
// space is offset from the training corpus seed so no request comes from a
// training file.
func workloadFiles(seed int64, salt int64, n int) []corpus.File {
	return dataset.DedupFiles(corpus.Galaxy(1_000_003+seed*7919+salt, n))
}

// distinctSamples extracts samples from files in order, keeping the first
// occurrence of every (context, prompt) key.
func distinctSamples(files []corpus.File, seen map[string]bool) []dataset.Sample {
	var out []dataset.Sample
	for _, f := range files {
		for _, s := range dataset.ExtractSamples(f) {
			k := s.Context + "\x00" + s.Prompt
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// typedTasks is how many tasks of each file a keystroke session types. Each
// request waits out the 50 ms stream hand-back, so a run types only a few
// dozen files; typing the first three tasks of each file instead of all of
// them spreads a run over more files.
const typedTasks = 3

// keystrokeBatches is how many Galaxy-sim corpora of 64 files the keystroke
// plan shuffles together. A corpus lists its role files first, and those
// differ in size from the rest, so files dealt in corpus order made the
// TTFT tail drift within a run (about 12 ms over the first ten seconds,
// 14-18 ms later) and swing with each seed's share of role files.
const keystrokeBatches = 8

// buildKeystroke types Galaxy-sim files task by task, one word at a time:
// every prefix of a task's name is a request whose context is the file text
// above the task, and the finished task is accepted into that context before
// the next one is typed. Each session types the first typedTasks tasks of a
// file, then opens the next. The files of keystrokeBatches corpora are
// shuffled under the seed and dealt round-robin to the sessions, so every
// stretch of a run types the same mix of files.
func buildKeystroke(seed int64, conns int, seconds float64) plan {
	want := int(maxConnRate * seconds)
	p := plan{Sessions: make([][]request, conns)}
	r := rand.New(rand.NewSource(seed))
	for round := int64(0); ; round++ {
		short := false
		for _, s := range p.Sessions {
			if len(s) < want {
				short = true
			}
		}
		if !short {
			return p
		}
		var files []corpus.File
		for b := int64(0); b < keystrokeBatches; b++ {
			files = append(files, workloadFiles(seed, round*keystrokeBatches+b, 64)...)
		}
		r.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
		n := 0
		for _, f := range files {
			if typed := typeFile(f); len(typed) > 0 {
				p.Sessions[n%conns] = append(p.Sessions[n%conns], typed...)
				n++
			}
		}
	}
}

// typeFile is one file typed task by task, one word of each name at a time.
func typeFile(f corpus.File) []request {
	var out []request
	samples := dataset.ExtractSamples(f)
	if len(samples) > typedTasks {
		samples = samples[:typedTasks]
	}
	for _, s := range samples {
		words := strings.Fields(s.Prompt)
		for n := 1; n <= len(words); n++ {
			r := request{Context: s.Context, Prompt: strings.Join(words[:n], " "), Type: s.Type}
			if n == len(words) {
				r.Target = s.Target
			}
			out = append(out, r)
		}
	}
	return out
}

// buildDataset draws distinct extracted samples of all four generation types
// in a seeded order, so the closed-loop connections never repeat a request.
func buildDataset(seed int64, conns int, seconds float64) plan {
	want := int(maxConnRate * seconds * float64(conns))
	seen := make(map[string]bool)
	var samples []dataset.Sample
	for batch := int64(0); len(samples) < want; batch++ {
		samples = append(samples, distinctSamples(workloadFiles(seed, 100+batch, 256), seen)...)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	p := plan{Requests: make([]request, len(samples))}
	for i, s := range samples {
		p.Requests[i] = request{Context: s.Context, Prompt: s.Prompt, Target: s.Target, Type: s.Type}
	}
	return p
}

// buildPopular draws a pool of poolSize distinct intents in a seeded order,
// popularWarm warm-up requests, and popularRate × seconds arrivals at
// uniformly random times over the run (a Poisson process conditioned on its
// count). Intent ranks follow a Zipf law, drawn by stratified inverse-CDF
// sampling: one draw from each of the equal-probability strata of the
// warm-up and measured requests together, shuffled into sending order.
// Every run then sends each popularity band its expected share, so the
// share of cache hits does not swing with the seed.
func buildPopular(seed int64, _ int, seconds float64) plan {
	seen := make(map[string]bool)
	var samples []dataset.Sample
	for batch := int64(0); len(samples) < poolSize; batch++ {
		samples = append(samples, distinctSamples(workloadFiles(seed, 200+batch, 256), seen)...)
	}
	samples = samples[:poolSize]
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	p := plan{Pool: make([]request, len(samples))}
	for i, s := range samples {
		p.Pool[i] = request{Context: s.Context, Prompt: s.Prompt, Target: s.Target, Type: s.Type}
	}

	cdf := zipfCDF(poolSize, zipfS)
	n := int(popularRate * seconds)
	ranks := make([]int, popularWarm+n)
	for i := range ranks {
		ranks[i] = sort.SearchFloat64s(cdf, (float64(i)+r.Float64())/float64(len(ranks)))
	}
	r.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	p.Warm = ranks[:popularWarm]
	end := float64(seconds) * float64(time.Second)
	p.Arrivals = make([]arrival, n)
	for i := range p.Arrivals {
		p.Arrivals[i] = arrival{Due: time.Duration(r.Float64() * end), Idx: ranks[popularWarm+i]}
	}
	sort.Slice(p.Arrivals, func(i, j int) bool { return p.Arrivals[i].Due < p.Arrivals[j].Due })
	return p
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with weight
// (1+rank)^-s, the law rand.Zipf draws from with v = 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	cdf[n-1] = 1
	return cdf
}

// warmupRequests are a few requests per connection from a seed space no
// workload draws from, so warm-up fills no cache with a measured key.
func warmupRequests(n int) []request {
	files := dataset.DedupFiles(corpus.Galaxy(-424242, 8))
	var out []request
	for _, s := range distinctSamples(files, map[string]bool{}) {
		out = append(out, request{Context: s.Context, Prompt: s.Prompt, Type: s.Type})
		if len(out) == n {
			break
		}
	}
	return out
}

// sessionID names an editor session; the load generator picks the indices.
func sessionID(seed int64, i int) string { return fmt.Sprintf("editor-%d-%d", seed, i) }
