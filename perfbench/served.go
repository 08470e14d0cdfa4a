package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pinnedloads/internal/experiments"
	"pinnedloads/internal/service"
	"pinnedloads/internal/service/client"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
)

// server is an in-process simulation service on a loopback listener, built
// the way plserved -cache-dir builds it: a bounded memory cache in front of
// a disk cache, and a worker pool.
type server struct {
	srv  *service.Server
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	dir  string
	url  string
}

// startServer starts a server with an empty cache directory under workdir;
// wrap, when set, wraps its cache. It returns once the server has answered
// its first request, with the time that took.
func startServer(workdir string, wrap func(simcache.Cache) simcache.Cache) (*server, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(workdir, "cache-")
	if err != nil {
		return nil, 0, err
	}
	disk, err := simcache.NewDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	var c simcache.Cache = simcache.NewTiered(simcache.NewMemory(1024), disk)
	if wrap != nil {
		c = wrap(c)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	srv := service.New(service.Options{Workers: workers, Cache: c})
	srv.Start()
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		dir: dir, url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := client.New(s.url)
	cl.HTTP = &http.Client{Transport: tr}
	if _, err := cl.Healthz(context.Background()); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop shuts the listener and the worker pool down, waits for both, and
// removes the cache directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// svcTrace is what a traced served pass measures around the client's calls
// into the service.
type svcTrace struct {
	mu           sync.Mutex
	jobs, waited int64
	submit, wait time.Duration
	polls        atomic.Int64
	depthSum     int64
	depthN       int64
	slackMs      float64 // mean served latency minus in-process run time
	svc          map[string]uint64
}

// tracedClient is client.Client.Run split into its Submit and Wait calls,
// each timed.
type tracedClient struct {
	cl *client.Client
	tr *svcTrace
}

func (c tracedClient) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	start := time.Now()
	st, err := c.cl.Submit(ctx, spec)
	submit := time.Since(start)
	var wait time.Duration
	waited := err == nil && !st.State.Terminal()
	if waited {
		start = time.Now()
		st, err = c.cl.Wait(ctx, st.ID)
		wait = time.Since(start)
	}
	c.tr.mu.Lock()
	c.tr.jobs++
	c.tr.submit += submit
	c.tr.wait += wait
	if waited {
		c.tr.waited++
	}
	c.tr.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return st.Result, nil
}

// pollCounter counts the job-status requests Wait makes.
type pollCounter struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (p pollCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
		p.n.Add(1)
	}
	return p.next.RoundTrip(r)
}

// servedPass runs the Figure 7 sweep through client.Client against a fresh
// server: cold, then warm against the same server. With tr set, the cold
// sweep's client calls are traced and the queue depth is sampled.
func servedPass(b *bench, wrap func(simcache.Cache) simcache.Cache, tr *svcTrace) (p pass, err error) {
	p = pass{cold: newJobLog(), warm: newJobLog()}
	start := time.Now()
	defer func() { p.elapsed = time.Since(start) }()
	s, _, err := startServer(b.workdir, wrap)
	if err != nil {
		return p, err
	}
	err = s.sweeps(b, &p, tr)
	if serr := s.stop(); err == nil {
		err = serr
	}
	return p, err
}

func (s *server) sweeps(b *bench, p *pass, tr *svcTrace) error {
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	newClient := func(rt http.RoundTripper) *client.Client {
		cl := client.New(s.url)
		cl.HTTP = &http.Client{Transport: rt}
		return cl
	}
	var cold experiments.RemoteRunner = newClient(transport)
	stopSampling := func() {}
	if tr != nil {
		cold = tracedClient{cl: newClient(pollCounter{next: transport, n: &tr.polls}), tr: tr}
		stopSampling = sampleQueue(s.srv, tr)
	}
	h := startHeapPeak()
	csv, wall, executed, err := sweep(b.seed, timed{cold, p.cold})
	stopSampling()
	p.heapMB = h.mb()
	if err != nil {
		return err
	}
	p.wall, p.executed = wall, executed
	p.coldDigest = p.cold.digest(csv)
	cl := newClient(transport)
	for i := 0; i < warmRepeats(p.cold.attempted()); i++ {
		warmStart()
		wcsv, _, _, err := sweep(b.seed, timed{cl, p.warm})
		if err != nil {
			return err
		}
		p.setWarmDigest(i, p.warm.digest(wcsv))
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	b.check(m["svc.executed"] == uint64(len(p.cold.outs)),
		"served-fig7: service executed %d simulations for %d distinct jobs", m["svc.executed"], len(p.cold.outs))
	if tr != nil {
		tr.svc = m
	}
	return nil
}

// sampleQueue samples Server.QueueDepth every millisecond until the
// returned stop function is called.
func sampleQueue(srv *service.Server, tr *svcTrace) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d, _ := srv.QueueDepth()
				tr.depthSum += int64(d)
				tr.depthN++
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// setupServers measures the served workload's set-up: everything before
// its first simulated cycle, which is a server start, up to the first
// answered request, plus the systems the server's workers build (core.New
// with LLC prewarm, once per distinct proxy).
func setupServers(b *bench) ([]float64, error) {
	return setupSamples(func() (time.Duration, error) {
		s, d, err := startServer(b.workdir, nil)
		if err != nil {
			return 0, err
		}
		if err := s.stop(); err != nil {
			return 0, err
		}
		build, err := buildSystems(spec17(), b.seed)
		return d + build, err
	})
}

// inprocReference runs the sweep in-process, as fig7-inproc does: its
// outputs are what every served pass must reproduce, and its per-job run
// times are the base of the service's poll slack.
func inprocReference(b *bench) (pass, error) {
	p, err := fig7Pass(b, execute, simcache.NewMemory(0))
	if err != nil {
		return p, err
	}
	b.checkPass("fig7", p, "")
	b.jobs(p.cold)
	b.jobs(p.warm)
	return p, nil
}

func servedRun(b *bench) error {
	ref, err := inprocReference(b)
	if err != nil {
		return err
	}
	setup, err := setupServers(b)
	if err != nil {
		return err
	}
	b.deadline = time.Now().Add(b.budget)
	var passes []pass
	for b.more(len(passes), lastElapsed(passes)) {
		p, err := servedPass(b, nil, nil)
		if err != nil {
			return err
		}
		b.checkPass("fig7", p, ref.coldDigest)
		passes = append(passes, p)
	}
	b.setEndToEnd(passes, setup)
	return nil
}

func servedTraced(b *bench) error {
	ref, err := inprocReference(b)
	if err != nil {
		return err
	}
	b.deadline = time.Now().Add(b.budget)
	tr := &svcTrace{}
	caches := &timedCache{}
	rounds, err := b.tracedRounds("fig7", ref.coldDigest, func() (pass, pass, string, time.Duration, error) {
		u, err := servedPass(b, nil, nil)
		if err != nil {
			return u, u, "", 0, err
		}
		round := &svcTrace{}
		c := &timedCache{}
		t, err := servedPass(b, func(next simcache.Cache) simcache.Cache {
			c.next = next
			return c
		}, round)
		tr.add(round, t.cold, ref.cold)
		caches.add(c)
		counts := fmt.Sprintf("svc.executed=%d svc.cache_hits=%d svc.dedup_hits=%d cache.gets=%d cache.hits=%d cache.puts=%d",
			round.svc["svc.executed"], round.svc["svc.cache_hits"], round.svc["svc.dedup_hits"], c.gets, c.hits, c.puts)
		return u, t, counts, 0, err
	})
	if err != nil {
		return err
	}
	tr.slackMs /= float64(rounds)
	for k, v := range tr.svc {
		tr.svc[k] = v / uint64(rounds)
	}
	b.setLayerMetrics(&layerTimes{}, rounds)
	caches.setMetrics(b)
	b.setServiceMetrics(tr)
	return nil
}

// add accumulates one traced round, with its poll slack measured against
// the in-process run times of the same jobs.
func (t *svcTrace) add(r *svcTrace, served, inproc *jobLog) {
	t.jobs += r.jobs
	t.waited += r.waited
	t.submit += r.submit
	t.wait += r.wait
	t.polls.Add(r.polls.Load())
	t.depthSum += r.depthSum
	t.depthN += r.depthN
	var slack float64
	for k, ms := range served.byKey {
		slack += ms - inproc.byKey[k]
	}
	t.slackMs += ratio(slack, float64(len(served.byKey)))
	if t.svc == nil {
		t.svc = map[string]uint64{}
	}
	for k, v := range r.svc {
		t.svc[k] += v
	}
}

// setServiceMetrics reports the service layer's split; nil means the
// workload does not use the service, and every service metric is 0.
func (b *bench) setServiceMetrics(t *svcTrace) {
	if t == nil {
		t = &svcTrace{}
	}
	b.set("service.submit_ms", ratio(millis(t.submit), float64(t.jobs)), "ms")
	b.set("service.wait_ms", ratio(millis(t.wait), float64(t.waited)), "ms")
	b.set("service.polls_per_job", ratio(float64(t.polls.Load()), float64(t.jobs)), "count")
	b.set("service.poll_slack_ms", t.slackMs, "ms")
	b.set("service.queue_depth_mean", ratio(float64(t.depthSum), float64(t.depthN)), "count")
	for _, name := range []string{"svc.executed", "svc.dedup_hits", "svc.cache_hits"} {
		b.set(name, float64(t.svc[name]), "count")
	}
}
