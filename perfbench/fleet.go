package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/server"
	"cgct/internal/server/client"
	"cgct/internal/store"
)

// Fleet deployment settings. The result cache is small on purpose, so
// that repeated jobs are served by every tier: result cache, store, peer
// fetch and fresh simulation.
const (
	fleetNodes        = 3
	fleetReplication  = 2
	fleetWorkers      = 2
	fleetCacheEntries = 8
	fleetClients      = 2 // closed-loop clients, one per host CPU
	pollInterval      = time.Millisecond
)

// fleetNode is one in-process cgctserve peer: a real HTTP listener, its
// own Manager and its own store directory.
type fleetNode struct {
	url string
	hs  *httptest.Server
	srv *server.Server
	st  *store.Store
	cl  *cluster.Cluster
	c   *client.Client
}

type fleet struct {
	nodes []*fleetNode
	hc    *http.Client
	once  sync.Once
}

// bootFleet starts the nodes, each with a store under dir, all in one
// cluster. Listeners come up first so every node knows every URL.
func bootFleet(dir string) (*fleet, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	f := &fleet{hc: &http.Client{Transport: tr}}
	slots := make([]*atomic.Value, fleetNodes)
	var urls []string
	for i := range slots {
		slot := new(atomic.Value)
		slots[i] = slot
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := slot.Load().(http.Handler)
			if h == nil {
				http.Error(w, `{"error":"booting"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		f.nodes = append(f.nodes, &fleetNode{url: hs.URL, hs: hs})
		urls = append(urls, hs.URL)
	}
	for i, n := range f.nodes {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, fmt.Sprintf("node%d", i))})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: opening store: %w", i, err)
		}
		n.st = st
		cl, err := cluster.New(cluster.Config{Self: n.url, Peers: urls, Replication: fleetReplication, HTTPClient: f.hc})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("node %d: building cluster: %w", i, err)
		}
		n.cl = cl
		n.srv = server.New(server.Options{Workers: fleetWorkers, CacheEntries: fleetCacheEntries, Store: st, Cluster: cl})
		n.c = client.New(n.url, f.hc)
		slots[i].Store(n.srv.Handler())
	}
	return f, nil
}

// close drains every node (stopping its prober and flushing its store)
// and shuts its listener. Calls after the first do nothing.
func (f *fleet) close() {
	f.once.Do(func() {
		for _, n := range f.nodes {
			if n.srv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_ = n.srv.Manager().Drain(ctx) // a drain that times out still stops the workers
				cancel()
			} else if n.st != nil {
				n.st.Close()
			}
			n.hs.Close()
		}
		f.hc.CloseIdleConnections()
	})
}

// serveOut is what one closed-loop pass over a fleet measured.
type serveOut struct {
	Jobs        []jobRecord `json:"jobs"`
	CacheHits   uint64      `json:"cache_hits"`
	CacheMisses uint64      `json:"cache_misses"`
	// Keys holds each request's content address, "" for a request no
	// job asked for.
	Keys []string `json:"keys"`
}

// serve runs the closed loop: fleetClients goroutines, each submitting
// its share of seq (indices into reqs) one job at a time, round-robin
// across nodes, and timing submit→result. With a recorder it also times
// how long each fresh result takes to appear in its replicas' stores.
func (f *fleet) serve(ctx context.Context, rec *recorder, reqs []cgct.RunRequest, seq []int) (*serveOut, error) {
	out := &serveOut{Jobs: make([]jobRecord, len(seq)), Keys: make([]string, len(reqs))}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, fleetClients)
	)
	epoch := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(seq); i += fleetClients {
				node := f.nodes[i%len(f.nodes)]
				r, key, err := f.job(ctx, rec, node, fmt.Sprintf("job-%d", i), reqs[seq[i]], epoch)
				r.Client = c
				out.Jobs[i] = r
				if err != nil {
					errs[c] = fmt.Errorf("job %d on %s: %w", i, node.url, err)
					return
				}
				mu.Lock()
				out.Keys[seq[i]] = key
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, n := range f.nodes {
		cs := n.srv.Manager().Metrics().Cache
		out.CacheHits += cs.Hits
		out.CacheMisses += cs.Misses
	}
	return out, nil
}

// job submits one request, waits for it and fetches its result.
func (f *fleet) job(ctx context.Context, rec *recorder, node *fleetNode, req string, rr cgct.RunRequest, epoch time.Time) (jobRecord, string, error) {
	r := jobRecord{Start: time.Since(epoch)}
	var st server.JobStatus
	var lag func(done time.Time, fresh bool)
	err := rec.do("job", req, 0, func(id int) error {
		err := rec.do("client.Submit", req, id, func(int) error {
			var err error
			st, err = node.c.Submit(ctx, server.JobRequest{Type: server.TypeSim, Benchmark: rr.Benchmark, Options: rr.Options})
			return err
		})
		if err != nil {
			return err
		}
		if rec != nil {
			lag = f.watchReplicas(ctx, rec, node, req, st.Key)
		}
		if err := rec.do("client.Wait", req, id, func(int) error {
			var err error
			st, err = node.c.Wait(ctx, st.ID, pollInterval)
			return err
		}); err != nil {
			return err
		}
		return rec.do("client.Result", req, id, func(int) error {
			var res cgct.Result
			var err error
			st, err = node.c.Result(ctx, st.ID, &res)
			return err
		})
	})
	r.End = time.Since(epoch)
	r.OK = err == nil && st.State == server.StateDone
	r.Source = st.ResultSource
	if r.Source == "" {
		r.Source = "cache"
	}
	if len(st.Phases) > 0 && st.Phases[0].Name == "queued" {
		r.QueueMs = st.Phases[0].DurationMs
	}
	if lag != nil {
		done := time.Time{}
		if st.FinishedAt != nil {
			done = *st.FinishedAt
		}
		lag(done, r.OK && r.Source == "sim")
	}
	if err == nil && !r.OK {
		err = fmt.Errorf("ended %s: %s", st.State, st.Error)
	}
	return r, st.Key, err
}

// watchReplicas starts polling the stores of key's other ring owners,
// from submit on, for the moment each holds the result. The returned
// function stops the polling; for a freshly simulated result it records,
// per replica, the lag from the job's completion to the replica's
// Store.Has turning true.
func (f *fleet) watchReplicas(ctx context.Context, rec *recorder, node *fleetNode, req, key string) func(time.Time, bool) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	type seen struct{ at time.Time }
	var (
		wg    sync.WaitGroup
		found []chan seen
	)
	for _, owner := range node.cl.Owners(key, 0) {
		if owner == node.url {
			continue
		}
		var target *fleetNode
		for _, n := range f.nodes {
			if n.url == owner {
				target = n
			}
		}
		if target == nil {
			continue
		}
		ch := make(chan seen, 1) // one send, never waited on when cancelled
		found = append(found, ch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(100 * time.Microsecond)
			defer t.Stop()
			for {
				if target.st.Has(key) {
					ch <- seen{time.Now()}
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
			}
		}()
	}
	return func(done time.Time, fresh bool) {
		if !fresh {
			cancel()
		}
		wg.Wait()
		cancel()
		if !fresh {
			return
		}
		for _, ch := range found {
			select {
			case s := <-ch:
				// A replica that held the key before the job finished
				// lagged by nothing.
				if !done.IsZero() {
					rec.add("replication.lag", req, 0, done, maxTime(done, s.at))
				}
			default:
			}
		}
	}
}

// probeLayers times the fleet's store and cluster entry points on the
// keys the closed loop left behind: Store.Get on every node holding a
// key, Store.Put of each payload into a fresh store under dir, and
// Cluster.Fetch of each key from each of its owners.
func (f *fleet) probeLayers(ctx context.Context, rec *recorder, dir string, keys []string) error {
	probe, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("opening probe store: %w", err)
	}
	defer probe.Close()
	self := f.nodes[0]
	for _, key := range keys {
		if key == "" {
			continue
		}
		req := "probe-" + key[:12]
		for _, n := range f.nodes {
			if !n.st.Has(key) {
				continue
			}
			var payload []byte
			if err := rec.do("store.Store.Get", req, 0, func(int) error {
				var err error
				payload, err = n.st.Get(key)
				return err
			}); err != nil {
				return err
			}
			if err := rec.do("store.Store.Put", req, 0, func(int) error { return probe.Put(key, payload) }); err != nil {
				return err
			}
		}
		for _, owner := range self.cl.Owners(key, 0) {
			if owner == self.url {
				continue
			}
			if err := rec.do("cluster.Cluster.Fetch", req, 0, func(int) error {
				_, err := self.cl.Fetch(ctx, owner, key)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return probe.Close()
}

// payload fetches key's canonical result bytes from every node that
// holds it and fails unless they are byte-identical.
func (f *fleet) payload(ctx context.Context, key string) ([]byte, error) {
	var got []byte
	for _, n := range f.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/v1/results/"+key, nil)
		if err != nil {
			return nil, err
		}
		resp, err := f.hc.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			continue
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("%s: HTTP %d for %s", n.url, resp.StatusCode, key)
		case got != nil && !bytes.Equal(got, body):
			return nil, fmt.Errorf("payload of %s differs between nodes", key)
		}
		got = body
	}
	if got == nil {
		return nil, fmt.Errorf("no node holds %s", key)
	}
	return got, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
