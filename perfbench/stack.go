package main

import (
	"context"
	"net"
	"os"
	"time"

	"tss/internal/adapter"
	"tss/internal/auth"
	"tss/internal/cache"
	"tss/internal/chirp"
	"tss/internal/obs"
	"tss/internal/vfs"
)

// owner is the subject every loopback client authenticates as, so the
// root ACL the server writes at start grants the clients all rights.
const owner = "hostname:localhost"

// rpcTimeout is the clients' RPC timeout; with it set, every RPC
// carries the deadline prefix verb, as tss clients send it.
const rpcTimeout = 30 * time.Second

// stack is one set-up workload: a chirp server on loopback TCP over an
// export directory, the clients' layers above it, and the benchmark's
// observation points. With tracing, both registries are attached and
// every layer is wrapped; without, the stack is exactly what a tss
// client assembles.
type stack struct {
	dir   string // the set-up's own directory: export, sources
	srv   *chirp.Server
	ln    net.Listener
	serve chan struct{}

	wire       wireStats
	sreg, creg *obs.Registry // nil without tracing
	tracers    []*tracer     // one per client; nil without tracing

	adapters []*adapter.Adapter
	caches   []*cache.FS
	closers  []vfs.Closer
}

// startServer exports dir over a fresh loopback listener.
func (s *stack) startServer(dir string, trace bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if trace {
		s.sreg, s.creg = obs.NewRegistry(), obs.NewRegistry()
	}
	srv, err := chirp.NewServer(dir, chirp.ServerConfig{
		Name:      "bench",
		Owner:     owner,
		Verifiers: []auth.Verifier{&auth.HostnameVerifier{}},
		Metrics:   s.sreg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.ln, s.serve = srv, ln, make(chan struct{})
	go func() {
		defer close(s.serve)
		srv.Serve(ln)
	}()
	return nil
}

func (s *stack) clientConfig(poolSize int) chirp.ClientConfig {
	addr := s.ln.Addr().String()
	return chirp.ClientConfig{
		Dial:        func() (net.Conn, error) { return s.wire.dial(addr) },
		Credentials: []auth.Credential{auth.HostnameCredential{}},
		Timeout:     rpcTimeout,
		Metrics:     s.creg,
		PoolSize:    poolSize,
	}
}

// dialClient opens one client connection.
func (s *stack) dialClient() (*chirp.Client, error) {
	c, err := chirp.Dial(s.clientConfig(0))
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, c)
	return c, nil
}

// dialPool opens a pooled transport of up to size connections.
func (s *stack) dialPool(size int) (*chirp.Pool, error) {
	p, err := chirp.NewPool(s.clientConfig(size))
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, p)
	return p, nil
}

// newTracer adds the tracer of one more client (nil without tracing).
func (s *stack) newTracer() *tracer {
	if s.sreg == nil {
		return nil
	}
	t := newTracer(time.Now())
	s.tracers = append(s.tracers, t)
	return t
}

// layer wraps fs in a span-recording layer when tracing.
func layer(fs vfs.FileSystem, l uint8, t *tracer) vfs.FileSystem {
	if t == nil {
		return fs
	}
	return traced(fs, l, t)
}

// mountAdapter builds a client's adapter (trap emulator off) with fs at
// /m and returns what the application calls.
func (s *stack) mountAdapter(fs vfs.FileSystem, t *tracer) (vfs.FileSystem, error) {
	a := adapter.New(adapter.Config{})
	if err := a.MountFS("/m", fs); err != nil {
		return nil, err
	}
	s.adapters = append(s.adapters, a)
	return layer(a, layerAdapter, t), nil
}

func (s *stack) setTracing(on bool) {
	for _, t := range s.tracers {
		t.on = on
	}
}

// close stops the clients and the server and waits for the server to
// finish. The export stays until the run ends (see runBench).
func (s *stack) close() {
	for _, c := range s.caches {
		c.Close()
	}
	for _, c := range s.closers {
		c.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		s.ln.Close()
		<-s.serve
	}
}
