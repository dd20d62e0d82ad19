package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/server"
)

// opResult is one timed query.
type opResult struct {
	q        query
	open     time.Duration // Open (cold), OPEN round trip (remote), Acquire (pooled)
	latency  time.Duration // call to last message; includes open on the cold path
	firstMsg time.Duration // remote only: Query call to first message
	msgs     int64
	bytes    int64
	stats    core.Stats // cold path only: the fresh handle's Bag.Stats
	want     expect
	traced   bool // ran with spans
}

// record files a successful op's latency under the sample sets
// "open_us" and "<kind>_ms".
func (r *recorder) record(res opResult) {
	r.add("open_us", us(res.open))
	r.add(res.q.kind+"_ms", ms(res.latency))
}

// coldOp is one cold-read op: core.BORA.Open of the bag, then one
// Bag.Query, checked against the oracle.
func coldOp(b *core.BORA, name string, o *bagOracle, q query, sp spanner, drop bool) (opResult, error) {
	res := opResult{q: q, want: o.expected(q.topics, q.start, q.end)}
	t := newTally(o, q.kind == kindChrono)
	t.drop = drop
	t0 := time.Now()
	end := sp.call("core.BORA.Open")
	bag, err := b.Open(name)
	end()
	res.open = time.Since(t0)
	if err != nil {
		return res, err
	}
	end = sp.call("core.Bag.Query")
	err = bag.Query(q.spec(), func(m core.MessageRef) error {
		t.see(m.Conn.Topic, m.Time, m.Data)
		return nil
	})
	end()
	res.latency = time.Since(t0)
	res.msgs, res.bytes, res.stats = t.count, t.bytes, bag.Stats()
	if err != nil {
		return res, err
	}
	return res, t.check(res.want, fmt.Sprintf("cold %s query %v on %s", q.kind, q.topics, name))
}

// pooledOp is the same query through a pool: Acquire, then Query.
func pooledOp(p *pool.Pool, name string, o *bagOracle, q query) (opResult, error) {
	res := opResult{q: q, want: o.expected(q.topics, q.start, q.end)}
	t := newTally(o, q.kind == kindChrono)
	t0 := time.Now()
	bag, err := p.Acquire(name)
	res.open = time.Since(t0)
	if err != nil {
		return res, err
	}
	err = bag.Query(q.spec(), func(m core.MessageRef) error {
		t.see(m.Conn.Topic, m.Time, m.Data)
		return nil
	})
	res.latency = time.Since(t0)
	res.msgs, res.bytes = t.count, t.bytes
	if err != nil {
		return res, err
	}
	return res, t.check(res.want, fmt.Sprintf("pooled %s query %v on %s", q.kind, q.topics, name))
}

// remoteOp is one served op: an OPEN round trip, then a QUERY stream
// drained to its end. Latency runs from the Query call to the last
// message and excludes the OPEN.
func remoteOp(c *client.Client, name string, o *bagOracle, q query, sp spanner, drop bool) (opResult, error) {
	res := opResult{q: q, want: o.expected(q.topics, q.start, q.end)}
	t := newTally(o, q.kind == kindChrono)
	t.drop = drop
	t0 := time.Now()
	end := sp.call("client.Client.Open")
	err := c.Open(name)
	end()
	res.open = time.Since(t0)
	if err != nil {
		return res, err
	}
	s := q.spec()
	t1 := time.Now()
	end = sp.call("client.Client.Query")
	st, err := c.Query(name, client.QuerySpec{Topics: s.Topics, Start: s.Start, End: s.End, Chrono: q.kind == kindChrono})
	if err != nil {
		end()
		return res, err
	}
	for st.Next() {
		if t.count == 0 {
			res.firstMsg = time.Since(t1)
		}
		m := st.Message()
		t.see(m.Topic, m.Time, m.Data)
	}
	err = st.Err()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	end()
	res.latency = time.Since(t1)
	res.msgs, res.bytes = t.count, t.bytes
	if err != nil {
		return res, err
	}
	return res, t.check(res.want, fmt.Sprintf("remote %s query %v on %s", q.kind, q.topics, name))
}

// served is an in-process server.Server over a pool.Pool with default
// options, listening on loopback.
type served struct {
	pool  *pool.Pool
	srv   *server.Server
	done  chan error
	conns []*client.Client
	// Each client's query mix and op count, kept from one
	// measureRemote call to the next.
	mixes []*mix
	ops   []int
}

// startServed starts the server and dials n clients.
func startServed(b *core.BORA, n int) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := pool.New(b, pool.Options{})
	s := &served{pool: p, srv: server.New(b, server.Options{Pool: p}), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	for i := 0; i < n; i++ {
		c, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// stop closes the clients and the server and waits for Serve to return.
func (s *served) stop() {
	for _, c := range s.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// warm streams every fixture bag once, untimed, so handles and the
// block cache are resident before measuring.
func (s *served) warm(f *fixture) error {
	for i, name := range f.names {
		o := f.srcs[i]
		q := query{kind: kindTopic, bag: i, topics: o.topicNames()}
		if _, err := remoteOp(s.conns[i%len(s.conns)], name, o, q, spanner{}, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// remoteRun is what a remote loop measured.
type remoteRun struct {
	ops  []opResult
	io   ioCounters // process-wide /proc/self/io delta over the loop
	busy int64      // Server.Stats().QueriesBusy after the loop
}

// merge adds a later stretch of the same loops to run.
func (run *remoteRun) merge(o *remoteRun) {
	run.ops = append(run.ops, o.ops...)
	run.io = run.io.add(o.io)
	run.busy = o.busy
}

// measureRemote runs one closed loop per client over the seeded mix
// until stop(ops done by that client) says so. A later call continues
// each client's mix and op count. With trace set, every other op of
// each client runs with spans. A query error counts as a failed op; a
// wrong result stops every loop and is returned.
func (s *served) measureRemote(cfg config, f *fixture, r *recorder, stop func(ops int) bool, trace bool) (*remoteRun, error) {
	if s.mixes == nil {
		for ci := range s.conns {
			s.mixes = append(s.mixes, newMix(cfg.seed*7919+int64(ci), f.srcs))
		}
		s.ops = make([]int, len(s.conns))
	}
	var mu sync.Mutex
	run := &remoteRun{}
	var firstErr error
	var wg sync.WaitGroup
	io0 := readIO()
	for ci, c := range s.conns {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			m := s.mixes[ci]
			for ; !stop(s.ops[ci]); s.ops[ci]++ {
				n := s.ops[ci]
				q := m.next()
				on := trace && n%2 == 1
				sp, end := r.beginOp("op.remote."+q.kind, on)
				res, err := remoteOp(c, f.names[q.bag], f.srcs[q.bag], q, sp, cfg.dropOne && ci == 0 && n == 0)
				end()
				res.traced = on
				mu.Lock()
				if errors.Is(err, errWrong) && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					run.ops = append(run.ops, res)
				}
				stopped := firstErr != nil
				mu.Unlock()
				if stopped {
					return
				}
				r.op(err)
			}
		}(ci, c)
	}
	wg.Wait()
	run.io = readIO().sub(io0)
	run.busy = s.srv.Stats().QueriesBusy
	return run, firstErr
}
