package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tanglefind/client"
	"tanglefind/internal/jobs"
	"tanglefind/internal/server"
	"tanglefind/internal/store"
)

// stack is the durable service wired in-process the way gtlserved
// -data-dir wires it, serving real loopback HTTP.
type stack struct {
	dir       string
	st        *store.Store
	mgr       *jobs.Manager
	hs        *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client
}

// startStack boots the service on a fresh data directory. pinBudget is
// the registry's eviction threshold (gtlserved -cache-pins) and
// jobRecords the number of finished job records the manager retains.
// When tr is set, the store backend and the client's HTTP calls record
// spans.
func startStack(ctx context.Context, dir string, pinBudget int64, jobRecords int, tr *tracer) (*stack, error) {
	_, end := tr.begin(ctx, "store.open")
	disk, err := store.OpenDisk(dir)
	if err != nil {
		end()
		return nil, err
	}
	var backend store.Backend = disk
	if tr != nil {
		backend = &timedBackend{Backend: disk, tr: tr}
	}
	st, err := store.Open(pinBudget, backend)
	end()
	if err != nil {
		disk.Close()
		return nil, err
	}
	mgr := jobs.New(jobs.Config{Store: st, Workers: jobWorkers, EngineWorkers: engineWorkers, MaxJobs: jobRecords})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(context.Background())
		st.Close()
		return nil, err
	}
	s := &stack{
		dir:    dir,
		st:     st,
		mgr:    mgr,
		hs:     &http.Server{Handler: server.New(st, mgr).Handler()},
		served: make(chan error, 1),
		// At most one connection per client goroutine: load comes from
		// this one process with no more connections than cores.
		transport: &http.Transport{MaxConnsPerHost: engineWorkers, MaxIdleConnsPerHost: engineWorkers},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = &tracingTransport{base: s.transport, tr: tr}
	}
	s.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	return s, nil
}

// close drains the service, waits for its goroutines and removes the
// data directory.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.transport.CloseIdleConnections()
	err = errors.Join(err, s.mgr.Shutdown(ctx), s.st.Close(), os.RemoveAll(s.dir))
	if err != nil {
		return fmt.Errorf("stop service: %w", err)
	}
	return nil
}
