package main

import (
	"errors"
	"fmt"
	"time"
)

// tracedOp reports whether op n of a main loop runs with spans: in a
// traced run every other op does, so the run measures its own tracing
// overhead against interleaved untraced ops.
func tracedOp(cfg config, n int) bool { return cfg.trace && n%2 == 1 }

// opCost sums op time and messages separately over the untraced [0]
// and traced [1] ops of a main loop.
type opCost struct{ ns, msgs [2]float64 }

func (c *opCost) add(traced bool, d time.Duration, msgs int64) {
	i := 0
	if traced {
		i = 1
	}
	c.ns[i] += float64(d)
	c.msgs[i] += float64(msgs)
}

// overhead records trace.overhead_share: the traced ops' cost per
// message over the untraced ops', minus one.
func (r *recorder) overhead(c opCost) {
	if c.msgs[0] == 0 || c.msgs[1] == 0 {
		r.setMissing("trace.overhead_share", "no traced or no untraced op completed")
		return
	}
	r.set("trace.overhead_share", (c.ns[1]/c.msgs[1])/(c.ns[0]/c.msgs[0])-1)
}

// runColdRead: one goroutine, closed loop; each op opens a fixture bag
// with core.BORA.Open and runs one query of the seeded mix. Companion
// ingest cycles run between stretches of the loop.
func runColdRead(cfg config, dir string, r *recorder) error {
	srcs, err := makeSources(dir, cfg.size.coldBags, cfg.size.bagSeconds, cfg.size.scaleDown, cfg.seed)
	if err != nil {
		return err
	}
	f, teardown, err := setUp(cfg, dir, srcs, r, nil)
	if err != nil {
		return err
	}
	defer teardown()

	comp, err := newCompanions(cfg, f, r)
	if err != nil {
		return err
	}
	m := newMix(cfg.seed, f.srcs)
	var n int
	var msgs, ops int64
	var cost opCost
	before := readUsage()
	looped, err := comp.interleave(func(until time.Time) error {
		for ; time.Now().Before(until); n++ {
			q := m.next()
			on := tracedOp(cfg, n)
			sp, end := r.beginOp("op.cold."+q.kind, on)
			res, err := coldOp(f.b, f.names[q.bag], f.srcs[q.bag], q, sp, cfg.dropOne && n == 0)
			end()
			if errors.Is(err, errWrong) {
				return err
			}
			r.op(err)
			if err != nil {
				continue
			}
			r.record(res)
			ops++
			msgs += res.msgs
			cost.add(on, res.latency, res.msgs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setProcess(before, readUsage().sub(comp.used), ops)
	r.set("msgs_per_s", float64(msgs)/looped.Seconds())
	r.overhead(cost)

	if cfg.trace {
		if err := probeLayers(cfg, dir, f, r, nil); err != nil {
			return err
		}
	}
	r.finish()
	return nil
}

// runServedRead: an in-process server over a default pool on loopback;
// two clients each run a closed loop over the seeded mix, after an
// untimed warm-up pass. Companion ingest cycles run between stretches
// of the loops, with both clients paused.
func runServedRead(cfg config, dir string, r *recorder) error {
	srcs, err := makeSources(dir, cfg.size.servedBags, cfg.size.bagSeconds, cfg.size.scaleDown, cfg.seed)
	if err != nil {
		return err
	}
	var s *served
	f, teardown, err := setUp(cfg, dir, srcs, r, func(f *fixture) (func(), error) {
		var err error
		if s, err = startServed(f.b, 2); err != nil {
			return nil, err
		}
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if err := s.warm(f); err != nil {
		return err
	}

	comp, err := newCompanions(cfg, f, r)
	if err != nil {
		return err
	}
	before := readUsage()
	var loop *remoteRun
	looped, err := comp.interleave(func(until time.Time) error {
		run, err := s.measureRemote(cfg, f, r, func(int) bool { return !time.Now().Before(until) }, cfg.trace)
		if loop == nil {
			loop = run
		} else {
			loop.merge(run)
		}
		return err
	})
	if err != nil {
		return err
	}
	if loop == nil {
		return fmt.Errorf("the main loop never ran: --seconds %v is too short for %d companion cycles", cfg.seconds, cfg.size.companionCycles)
	}
	var msgs int64
	var cost opCost
	for _, res := range loop.ops {
		r.record(res)
		msgs += res.msgs
		cost.add(res.traced, res.latency, res.msgs)
	}
	r.setProcess(before, readUsage().sub(comp.used), int64(len(loop.ops)))
	r.set("msgs_per_s", float64(msgs)/looped.Seconds())
	r.overhead(cost)

	if cfg.trace {
		if err := probeLayers(cfg, dir, f, r, &servedProbe{s: s, loop: loop}); err != nil {
			return err
		}
	}
	r.finish()
	return nil
}

// runIngest: one writer goroutine and one Follow reader cycle through
// duplicate, live recording with a followed paced tail, and a cold then
// no-op dataset build.
func runIngest(cfg config, dir string, r *recorder) error {
	srcs, err := makeSources(dir, 1, cfg.size.ingestSeconds, cfg.size.scaleDown, cfg.seed)
	if err != nil {
		return err
	}
	feed, err := captureFeed(cfg.size.ingestSeconds, cfg.size.scaleDown, cfg.seed*1009)
	if err != nil {
		return err
	}
	f, teardown, err := setUp(cfg, dir, srcs, r, nil)
	if err != nil {
		return err
	}
	defer teardown()

	m := newMix(cfg.seed, f.srcs)
	var msgs, cycles int64
	var cost opCost
	before := readUsage()
	start := time.Now()
	stop := deadline(cfg)
	for k := 0; k < 2 || time.Now().Before(stop); k++ {
		on := tracedOp(cfg, k)
		sp, end := r.beginOp("op.ingest.cycle", on)
		c0 := time.Now()
		n, err := ingestCycle(cfg, f, r, cycleOpts{k: k, verify: true, mix: m, feed: feed, drop: cfg.dropOne && k == 0}, sp)
		end()
		if errors.Is(err, errWrong) {
			return err
		}
		cycles++
		msgs += n
		cost.add(on, time.Since(c0), n)
	}
	elapsed := time.Since(start)
	r.setProcess(before, readUsage(), cycles)
	r.set("msgs_per_s", float64(msgs)/elapsed.Seconds())
	r.overhead(cost)
	if cfg.trace {
		if err := probeLayers(cfg, dir, f, r, nil); err != nil {
			return err
		}
	}
	r.finish()
	return nil
}

// finish turns the run's samples into the end-to-end metrics and the
// diagnostics every workload reports.
func (r *recorder) finish() {
	r.setQuantile("setup_s", "setup_s", 0.5)
	r.setQuantile("open_p50_us", "open_us", 0.5)
	r.setQuantile("topic_query_p50_ms", "topic_ms", 0.5)
	r.setQuantile("topic_query_p90_ms", "topic_ms", 0.9)
	r.setQuantile("diag.topic_query_p99_ms", "topic_ms", 0.99)
	r.setQuantile("window_query_p50_ms", "window_ms", 0.5)
	r.setQuantile("window_query_p90_ms", "window_ms", 0.9)
	r.setQuantile("chrono_query_p50_ms", "chrono_ms", 0.5)
	r.setQuantile("duplicate_mb_per_s", "duplicate_mb_per_s", 0.5)
	r.setQuantile("stored_bytes_ratio", "stored_bytes_ratio", 0.5)
	r.setQuantile("record_msgs_per_s", "record_msgs_per_s", 0.5)
	r.setQuantile("follow_lag_p50_us", "follow_lag_p50_us", 0.5)
	r.setQuantile("follow_lag_p90_us", "follow_lag_p90_us", 0.5)
	r.setQuantile("build_noop_p50_ms", "build_noop_ms", 0.5)
	r.setPeakRSS()
	r.mu.Lock()
	errRatio := float64(r.failed) / float64(max(r.attempted, 1))
	r.mu.Unlock()
	r.set("ok_ratio", 1-errRatio)
	r.set("error_ratio", errRatio)
}
