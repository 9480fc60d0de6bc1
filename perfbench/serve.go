package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairtask"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/model"
	"fairtask/internal/server"
	"fairtask/internal/vdps"
)

const (
	// serveInstances is how many GM instances the requests cycle through;
	// one pass posts each once.
	serveInstances = 64
	// serveClients is the number of closed-loop client connections, one
	// per CPU of the 2-vCPU reference host.
	serveClients = 2
	// opHeader carries a request's op index to the timing wrapper.
	opHeader = "X-Perfbench-Op"
)

// serveWant is an in-process solve of one request body.
type serveWant struct {
	diff, avg float64
	workers   int
}

// serveResp is one request's outcome.
type serveResp struct {
	status int
	body   []byte
	err    error
}

// serveTrace accumulates the traced requests' figures.
type serveTrace struct {
	ops                                   int
	client, handler, readCSV, audit, self time.Duration
	responseBytes                         int
	busy                                  []time.Duration
	// mismatched counts replicated solves that failed, failed their audit,
	// or whose P_dif or average payoff differs from the in-process solve of
	// the same body.
	mismatched int
}

// serveBench is the serve workload: POST /solve?alg=IEGT&eps=0.6&audit=1
// with one GM instance as a CSV body, to the HTTP service behind httptest
// on loopback, from serveClients closed-loop clients.
type serveBench struct {
	bodies [][]byte
	seeds  []int64 // IEGT seed of each body's request
	urls   []string
	want   []serveWant
	srv    *httptest.Server
	client *http.Client

	resps []serveResp

	outputs   int
	pdif, avg float64
	err       error

	tracing atomic.Bool
	handler []atomic.Int64 // server-side ServeHTTP time by op, traced passes only
	mu      sync.Mutex     // guards the traced accumulators below
	acc     solveAcc
	tr      serveTrace
}

// setupServe encodes the GM layouts as CSV bodies, draws each request's
// IEGT seed from seed, and starts the service with the same solver factory
// as the fta serve command.
func setupServe(_ context.Context, seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	ins, err := gmLayouts(serveInstances)
	if err != nil {
		return nil, err
	}
	b := &serveBench{}
	for _, in := range ins {
		b.seeds = append(b.seeds, rng.Int63())
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, &model.Problem{Instances: []model.Instance{*in}}); err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, buf.Bytes())
	}
	b.srv = httptest.NewServer(timedHandler{newServiceHandler(), b})
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
	}}
	for _, s := range b.seeds {
		b.urls = append(b.urls, b.srv.URL+"/solve?alg=IEGT&eps="+strconv.FormatFloat(gmEps, 'g', -1, 64)+
			"&audit=1&seed="+strconv.FormatInt(s, 10))
	}
	return b, nil
}

// newServiceHandler builds the HTTP service as the fta serve command does:
// solver telemetry flows into the handler's metrics registry. Request
// logging is off.
func newServiceHandler() *server.Handler {
	var rec *fairtask.MetricsRecorder
	h := server.New(func(algorithm string, seed int64) (fairtask.Assigner, error) {
		opt := fairtask.Options{Algorithm: fairtask.Algorithm(algorithm), Seed: seed}
		if rec != nil {
			opt.Recorder = rec
		}
		return fairtask.NewAssigner(opt)
	})
	rec = fairtask.NewMetricsRecorder(h.Registry)
	algs := make([]string, 0, len(fairtask.ExtendedAlgorithms()))
	for _, a := range fairtask.ExtendedAlgorithms() {
		algs = append(algs, string(a))
	}
	rec.SeedAlgorithms(algs...)
	h.Recorder = rec
	return h
}

// timedHandler times the service's ServeHTTP during traced passes.
type timedHandler struct {
	h http.Handler
	b *serveBench
}

// ServeHTTP serves the request, recording its handler time by op index
// while a traced pass runs.
func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.b.tracing.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil && op >= 0 && op < len(t.b.handler) {
		t.b.handler[op].Store(int64(time.Since(start)))
	}
}

func (b *serveBench) close() {
	b.srv.Close()
	b.client.CloseIdleConnections()
}

func (b *serveBench) reset(context.Context) error { return nil }

// prepare solves every body in process with SolveProblem and checks that
// the IEGT dynamics iterate.
func (b *serveBench) prepare(ctx context.Context) error {
	b.want = b.want[:0]
	for i, body := range b.bodies {
		p, err := dataset.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return err
		}
		res, err := fairtask.SolveProblemContext(ctx, p, fairtask.Options{
			Algorithm: fairtask.AlgIEGT,
			VDPS:      vdps.Options{Epsilon: gmEps},
			Seed:      b.seeds[i],
		})
		if err != nil {
			return err
		}
		if it := res.PerCenter[0].Iterations; it <= 1 && b.err == nil {
			b.err = fmt.Errorf("serve: instance %d: trivial IEGT dynamics (%d iteration)", i, it)
		}
		b.want = append(b.want, serveWant{res.Difference, res.Average, len(res.Payoffs)})
	}
	return nil
}

// pass posts the first n bodies (each once when n <= 0) from the clients.
func (b *serveBench) pass(ctx context.Context, n int, traced bool) ([]time.Duration, error) {
	if n <= 0 {
		n = len(b.bodies)
	}
	b.resps = make([]serveResp, n)
	if traced {
		b.handler = make([]atomic.Int64, n)
		b.tracing.Store(true)
		defer b.tracing.Store(false)
	}
	var next atomic.Int64
	lats := make([][]time.Duration, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				op := int(next.Add(1) - 1)
				if op >= n {
					return
				}
				start := time.Now()
				b.resps[op] = b.post(ctx, op)
				lat := time.Since(start)
				lats[c] = append(lats[c], lat)
				if traced && b.resps[op].err == nil {
					b.replicate(ctx, op, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	var lat []time.Duration
	for _, l := range lats {
		lat = append(lat, l...)
	}
	return lat, nil
}

// post sends one request and reads the whole response.
func (b *serveBench) post(ctx context.Context, op int) serveResp {
	i := op % len(b.bodies)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.urls[i], bytes.NewReader(b.bodies[i]))
	if err != nil {
		return serveResp{err: err}
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := b.client.Do(req)
	if err != nil {
		return serveResp{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return serveResp{status: resp.StatusCode, body: body, err: err}
}

// replicate runs the layer calls the service makes for a request —
// dataset.ReadCSV, the cold IEGT solve and audit.Run — on the same body in
// the client, timing each, once the response is in.
func (b *serveBench) replicate(ctx context.Context, op int, client time.Duration) {
	i := op % len(b.bodies)
	start := time.Now()
	p, err := dataset.ReadCSV(bytes.NewReader(b.bodies[i]))
	readCSV := time.Since(start)
	var c *centerTrace
	if err == nil {
		c, err = traceCenter(ctx, &p.Instances[0], vdps.Options{Epsilon: gmEps}, true, b.seeds[i])
	}
	if err != nil {
		b.mu.Lock()
		b.tr.mismatched++
		b.mu.Unlock()
		return
	}
	in := &p.Instances[0]
	start = time.Now()
	rep := audit.Run(in, c.res.Assignment, &c.res.Summary, audit.Options{
		Generator: c.genr,
		VDPS:      vdps.Options{Epsilon: gmEps},
		Algorithm: string(fairtask.AlgIEGT),
		Converged: c.res.Converged,
	})
	auditT := time.Since(start)
	handler := time.Duration(b.handler[op].Load())
	layers := readCSV + c.total() + auditT

	b.mu.Lock()
	defer b.mu.Unlock()
	b.acc.addGroup([]*centerTrace{c}, true)
	t := &b.tr
	t.ops++
	t.client += client
	t.handler += handler
	t.readCSV += readCSV
	t.audit += auditT
	t.self += handler - layers
	t.responseBytes += len(b.resps[op].body)
	t.busy = append(t.busy, layers)
	if want := b.want[i]; !rep.OK() || c.res.Summary.Difference != want.diff || c.res.Summary.Average != want.avg {
		t.mismatched++
	}
}

// check decodes every response of the last pass and compares its P_dif and
// average payoff bit-for-bit with the in-process solve of the same body,
// and requires a clean one-center audit block. A traced request also fails
// when its replicated solve differs from the in-process one.
func (b *serveBench) check(context.Context) int {
	b.mu.Lock()
	failed := b.tr.mismatched
	b.tr.mismatched = 0
	b.mu.Unlock()
	for op, r := range b.resps {
		want := b.want[op%len(b.want)]
		var got server.SolveResponse
		if r.err != nil || r.status != http.StatusOK || json.Unmarshal(r.body, &got) != nil ||
			got.Algorithm != string(fairtask.AlgIEGT) || got.Difference != want.diff || got.Average != want.avg ||
			got.Workers != want.workers || got.Audit == nil || !got.Audit.OK || got.Audit.Centers != 1 {
			failed++
			continue
		}
		b.outputs++
		b.pdif += got.Difference
		b.avg += got.Average
	}
	return failed
}

func (b *serveBench) verdict() error { return b.err }

func (b *serveBench) fairness() (float64, float64) {
	if b.outputs == 0 {
		return 0, 0
	}
	return b.pdif / float64(b.outputs), b.avg / float64(b.outputs)
}

func (b *serveBench) layers() (map[string]float64, time.Duration) {
	vals := map[string]float64{}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := &b.tr
	if t.ops == 0 {
		return vals, 0
	}
	b.acc.metrics(vals)
	n := float64(t.ops)
	vals["audit.run_ms"] = ms64(t.audit) / n
	vals["dataset.read_csv_ms"] = ms64(t.readCSV) / n
	vals["server.handler_ms"] = ms64(t.handler) / n
	vals["server.transport_ms"] = ms64(t.client-t.handler) / n
	vals["server.self_ms"] = ms64(t.self) / n
	vals["server.response_kb"] = float64(t.responseBytes) / n / 1024
	return vals, percentile(t.busy, 0.5)
}
