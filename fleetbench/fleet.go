package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wisdom/internal/corpus"
	"wisdom/internal/dataset"
	"wisdom/internal/neural"
	"wisdom/internal/observe"
	"wisdom/internal/resilience"
	"wisdom/internal/router"
	"wisdom/internal/serve"
	"wisdom/internal/tokenizer"
	"wisdom/internal/wisdom"
)

// modelConfig is the served transformer. It is small enough to train in a
// few seconds on two cores, and its 256-token window holds the longest
// extracted contexts after Predict's left truncation.
type modelConfig struct {
	TrainFiles int     `json:"train_files"`
	MaxNewTask int     `json:"max_new_task"`
	Vocab      int     `json:"vocab"`
	Ctx        int     `json:"ctx"`
	Dim        int     `json:"dim"`
	Heads      int     `json:"heads"`
	Layers     int     `json:"layers"`
	Epochs     int     `json:"epochs"`
	BatchSize  int     `json:"batch_size"`
	LR         float64 `json:"lr"`
}

// MaxNewTask bounds a suggestion at 64 tokens: Galaxy-sim task bodies run
// about 20-60, and the 192 tokens it leaves of the window keep most
// contexts whole. At wisdom's default of 120 only 136 prompt tokens fit, so
// four keystroke requests in ten slide the truncation window and re-prime in
// full, and the keystroke median sits between the reused and re-primed
// modes, where it swings with each seed's files.
var servedModel = modelConfig{
	TrainFiles: 120, MaxNewTask: 64, Vocab: 512, Ctx: 256, Dim: 48, Heads: 2, Layers: 2,
	Epochs: 1, BatchSize: 8, LR: 3e-3,
}

// trainSeed fixes the training corpus; workload seeds never reach it.
const trainSeed = 7

// fallbackOnly is a retrieval threshold no prompt similarity reaches, so the
// memory answers only as Predict's schema fallback. At Finetune's default of
// 0.9 most Galaxy-sim requests would be answered from memory without a
// decode, and the benchmark would stop measuring the engine.
const fallbackOnly = 2

// trainModel builds the served model from the Galaxy-sim training split:
// a tokenizer over its files, one epoch of transformer training over its
// extracted tasks (name line and body, packed into windows), and the
// nearest-neighbour memory Finetune builds over the same tasks. One epoch
// over whole files leaves the model unable to end a task, so every decode
// would run to the generation budget.
func trainModel(cfg modelConfig) (*wisdom.Model, error) {
	pipe := dataset.BuildPipeline(corpus.Galaxy(trainSeed, cfg.TrainFiles), trainSeed)
	texts := make([]string, len(pipe.FileSplit.Train))
	for i, f := range pipe.FileSplit.Train {
		texts[i] = f.Text
	}
	tok, err := tokenizer.Train(texts, cfg.Vocab)
	if err != nil {
		return nil, fmt.Errorf("train tokenizer: %w", err)
	}
	nm, err := neural.NewModel(neural.Config{
		Vocab: tok.VocabSize(), Ctx: cfg.Ctx, Dim: cfg.Dim, Heads: cfg.Heads, Layers: cfg.Layers, Seed: 5,
	})
	if err != nil {
		return nil, fmt.Errorf("build transformer: %w", err)
	}
	tasks := make([]string, len(pipe.Train))
	for i, s := range pipe.Train {
		tasks[i] = s.NameLine + "\n" + s.Target
	}
	nm.Train(dataset.PackFiles(tok, tasks, cfg.Ctx), neural.TrainConfig{
		Epochs: cfg.Epochs, LR: cfg.LR, BatchSize: cfg.BatchSize, Seed: 1,
	})
	mem := wisdom.NewMemory()
	for _, s := range pipe.Train {
		ctxIDs := dataset.LeftTruncate(tok.Encode(s.Context), cfg.Ctx/2)
		mem.Add(tok.Encode(strings.ToLower(s.Prompt)), ctxIDs, tok.Encode(s.Target), dataset.NameLineIndent(s.NameLine))
	}
	mem.Build()
	return &wisdom.Model{
		Name:          "wisdom-neural-galaxy",
		Tok:           tok,
		LM:            &wisdom.NeuralLM{Model: nm},
		CtxWindow:     cfg.Ctx,
		Style:         dataset.NameCompletion,
		Retr:          mem,
		RetrThreshold: fallbackOnly,
		MaxNewTask:    cfg.MaxNewTask,
	}, nil
}

// neuralOf returns the transformer behind a model built by trainModel.
func neuralOf(m *wisdom.Model) *neural.Model { return m.LM.(*wisdom.NeuralLM).Model }

// replicaModel gives one replica its own wisdom.Model over the shared,
// read-only trained weights, so each replica owns its decode engine and
// session cache the way a separate wisdom-serve process would.
func replicaModel(base *wisdom.Model) *wisdom.Model {
	m := *base
	m.LM = &wisdom.NeuralLM{Model: neuralOf(base)}
	return &m
}

// Serving options: the values wisdom-serve -sched and wisdom-router select
// with every other flag at its default.
const (
	replicas       = 2
	schedMaxBatch  = 8
	sessionMax     = 64
	sessionTTL     = 5 * time.Minute
	replicaCache   = 1024
	frontCache     = 1024
	frontWorkers   = 64
	maxBodyBytes   = 1 << 20
	breakerFails   = 5
	breakerCool    = 5 * time.Second
	breakerProbes  = 1
	shutdownBudget = 10 * time.Second
)

// replica is one wisdom-serve equivalent: a model with sessions and the
// scheduler on, behind a serve.Server answering RPC on a loopback port.
type replica struct {
	model  *wisdom.Model
	traced *tracedModel // nil on an untraced fleet
	srv    *serve.Server
	addr   string
}

// fleet is the in-process deployment: replicas behind a router, fronted by
// a stock serve.Server on loopback HTTP and RPC listeners.
type fleet struct {
	replicas []*replica
	rt       *router.Router
	front    *serve.Server
	httpSrv  *http.Server
	httpURL  string
	rpcAddr  string
	wg       sync.WaitGroup
}

// startFleet brings the fleet up. With a non-nil tracer the front's
// predictor and each replica's model are wrapped in span-recording
// decorators.
func startFleet(base *wisdom.Model, tr *tracer) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < replicas; i++ {
		m := replicaModel(base)
		m.EnableSessions(neural.SessionCacheConfig{MaxSessions: sessionMax, TTL: sessionTTL})
		m.EnableScheduler(neural.EngineConfig{MaxBatch: schedMaxBatch})
		var pred serve.Predictor = m
		var traced *tracedModel
		if tr != nil {
			traced = &tracedModel{Model: m, tr: tr}
			pred = traced
		}
		srv := serve.NewServerWithOptions(pred, m.Name, serve.Options{
			CacheSize:    replicaCache,
			Workers:      2 * schedMaxBatch,
			QueueTimeout: serve.DefaultQueueTimeout,
			MaxBodyBytes: maxBodyBytes,
			MaxBatch:     schedMaxBatch,
		})
		srv.Instrument(observe.NewRegistry())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			_ = m.CloseScheduler(context.Background())
			return nil, fmt.Errorf("replica listen: %w", err)
		}
		r := &replica{model: m, traced: traced, srv: srv, addr: ln.Addr().String()}
		f.replicas = append(f.replicas, r)
		addrs = append(addrs, r.addr)
		f.serve(func() error { return srv.ServeRPC(ln) })
	}

	rt, err := router.New(addrs, router.Options{
		VNodes:            router.DefaultVNodes,
		HeartbeatInterval: router.DefaultHeartbeatInterval,
		HeartbeatTimeout:  router.DefaultHeartbeatTimeout,
		DeadAfter:         router.DefaultDeadAfter,
		ForwardTimeout:    router.DefaultForwardTimeout,
		MaxIdle:           router.DefaultMaxIdle,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: breakerFails, Cooldown: breakerCool, HalfOpenProbes: breakerProbes,
		},
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	f.rt = rt
	reg := observe.NewRegistry()
	rt.Instrument(reg)
	var frontPred serve.Predictor = rt
	if tr != nil {
		frontPred = &tracedRouter{Router: rt, tr: tr}
	}
	f.front = serve.NewServerWithOptions(frontPred, "router", serve.Options{
		CacheSize:    frontCache,
		Workers:      frontWorkers,
		QueueTimeout: serve.DefaultQueueTimeout,
		MaxBodyBytes: maxBodyBytes,
	})
	f.front.Instrument(reg)

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("front rpc listen: %w", err)
	}
	f.rpcAddr = rln.Addr().String()
	f.serve(func() error { return f.front.ServeRPC(rln) })
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("front http listen: %w", err)
	}
	f.httpURL = "http://" + hln.Addr().String()
	f.httpSrv = &http.Server{Handler: f.front.Handler()}
	f.serve(func() error {
		if err := f.httpSrv.Serve(hln); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
	return f, nil
}

// serve runs one listener loop on a goroutine close waits for.
func (f *fleet) serve(loop func() error) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := loop(); err != nil {
			fmt.Fprintln(errOut, "fleetbench: listener:", err)
		}
	}()
}

// close drains the front, stops the router and the replicas, and waits for
// every listener loop to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownBudget)
	defer cancel()
	if f.httpSrv != nil {
		_ = f.httpSrv.Shutdown(ctx)
	}
	if f.front != nil {
		_ = f.front.Shutdown(ctx)
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, r := range f.replicas {
		_ = r.srv.Shutdown(ctx)
		_ = r.model.CloseScheduler(ctx)
	}
	f.wg.Wait()
}
