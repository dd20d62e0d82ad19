package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/build"
	"repro/internal/core"
)

// cycleOpts configures one ingest cycle.
type cycleOpts struct {
	k      int       // cycle number (names its outputs)
	verify bool      // run oracle-checked Open+Query ops on the duplicate
	mix    *mix      // query source for verify
	feed   []feedMsg // live-recording feed, in write order
	drop   bool      // drop one verified message (liveness test)
}

// ingestCycle runs one write-side cycle on fixture f and returns the
// messages it ingested. Each step counts as one op; a step's error ends
// the cycle and counts as a failed op, and a wrong result (errWrong)
// ends the run.
//  1. BORA.Duplicate of the fixture's first source .bag, then (verify)
//     a pass over every query deck (verifyKinds) as oracle-checked
//     Open+Query ops on the new bag;
//  2. a live recording of feed: an unpaced prefix, then a tail replayed
//     at the feed's own pace with a Follow query attached, then Seal;
//  3. a fixed derivation spec built cold, then several times as a no-op;
//  4. untimed removal of every output.
func ingestCycle(cfg config, f *fixture, r *recorder, co cycleOpts, sp spanner) (int64, error) {
	var n int64
	src := f.srcs[0]
	from := fmt.Sprintf("dup-%d", co.k)
	var outputs []string
	defer func() {
		for _, name := range outputs {
			_ = f.b.Remove(name) // best effort: the run's scratch dir is removed anyway
		}
		syscall.Sync() // keep the removal's write-back out of the next cycle's time
	}()
	t0 := time.Now()
	end := sp.call("core.BORA.Duplicate")
	_, st, err := f.b.Duplicate(src.path, from)
	end()
	r.op(err)
	if err != nil {
		return n, fmt.Errorf("duplicate: %w", err)
	}
	r.add("duplicate_mb_per_s", float64(src.size)/1e6/time.Since(t0).Seconds())
	outputs = append(outputs, from)
	stored, err := dirBytes(filepath.Join(f.b.Root(), from))
	if err != nil {
		return n, err
	}
	r.add("stored_bytes_ratio", float64(stored)/float64(src.size))
	n += st.Messages
	for i, kind := range verifyKinds(co.verify) {
		res, err := coldOp(f.b, from, src, co.mix.nextKind(kind), sp, co.drop && i == 0)
		if errors.Is(err, errWrong) {
			return n, err
		}
		r.op(err)
		if err == nil {
			r.record(res)
		}
	}

	live := fmt.Sprintf("live-%d", co.k)
	outputs = append(outputs, live)
	recorded, err := recordAndFollow(cfg, f.b, live, co.feed, r, sp)
	n += recorded
	r.op(err)
	if err != nil {
		return n, err
	}

	derived, err := buildCycle(cfg, f.b, from, src, r, sp)
	outputs = append(outputs, derived...)
	r.op(err)
	return n, err
}

// recordChunk is how many prefix messages one record_msgs_per_s sample
// covers.
const recordChunk = 1000

// chronoPasses is how many times one verification pass deals the
// chrono deck. Its four templates once per cycle give chrono_query_p50_ms
// only about 60 samples in a run, and its median then moved by a quarter
// between runs of the same code; three deals triple the samples for
// about a tenth more cycle time.
const chronoPasses = 3

// verifyKinds lists the kinds of one verification pass, so each ingest
// cycle checks its duplicate with the whole mix: every topic and window
// template once, every chrono template chronoPasses times (none when
// verify is off).
func verifyKinds(verify bool) []string {
	if !verify {
		return nil
	}
	var kinds []string
	for _, d := range []struct {
		kind string
		n    int
	}{{kindTopic, len(topicDeck)}, {kindWindow, len(windowDeck)}, {kindChrono, chronoPasses * len(chronoDeck)}} {
		for i := 0; i < d.n; i++ {
			kinds = append(kinds, d.kind)
		}
	}
	return kinds
}

// recordAndFollow records feed into a new live bag. The unpaced prefix
// is timed for record_msgs_per_s; then a Follow query is attached, and
// once it has delivered the prefix snapshot, the tail is written open
// loop on the recording's own schedule: each message is due its bag
// time after the tail's first one. Follow lag runs from each tail
// message's due time to its delivery. The Follow result must be
// exactly the feed: the snapshot as a time-ordered permutation of the
// prefix, the tail in write order.
func recordAndFollow(cfg config, b *core.BORA, name string, feed []feedMsg, r *recorder, sp spanner) (int64, error) {
	tail := min(cfg.size.tailMsgs, len(feed)/2)
	prefix := len(feed) - tail
	rec, err := b.CreateLiveBag(name, cfg.size.segWindow)
	if err != nil {
		return 0, err
	}
	conns := map[string]uint32{}
	write := func(m *feedMsg) error {
		id, ok := conns[m.topic]
		if !ok {
			var err error
			if id, err = rec.AddConnection(m.topic, m.typ); err != nil {
				return err
			}
			conns[m.topic] = id
		}
		return rec.WriteMessage(id, m.t, m.data)
	}
	sealed := false
	defer func() {
		if !sealed {
			_ = rec.Seal() // error path: stop the recording so Follow returns
		}
	}()

	// The prefix is timed in chunks of recordChunk messages, each one
	// record_msgs_per_s sample, so the median sees many samples per run.
	end := sp.call("core.Recorder.WriteMessage(prefix)")
	t0 := time.Now()
	for i := range feed[:prefix] {
		if err := write(&feed[i]); err != nil {
			end()
			return int64(i), err
		}
		if (i+1)%recordChunk == 0 {
			d := time.Since(t0)
			r.add("record_msgs_per_s", recordChunk/d.Seconds())
			r.add("recorder.write_ns_per_msg", float64(d)/recordChunk)
			t0 = time.Now()
		}
	}
	end()

	bag, err := b.Open(name)
	if err != nil {
		return int64(prefix), err
	}
	var want expect
	for _, m := range feed[:prefix] {
		want.count++
		want.sum += m.digest
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	due := make([]time.Duration, tail) // tail message j's due time after origin
	for j := range due {
		due[j] = time.Duration(feed[prefix+j].t.Nanos() - feed[prefix].t.Nanos())
	}
	var origin time.Time
	var originMu sync.Mutex // orders the writer's origin with the reader's use of it
	caughtUp := make(chan struct{})
	done := make(chan error, 1)
	lags := make([]float64, 0, tail)
	snap := &tally{chrono: true, lastByTopic: map[string]int64{}, keys: map[string]uint64{}}
	var delivered int
	go func() {
		var tailErr error
		endF := sp.call("core.Bag.QueryContext(Follow)")
		err := bag.QueryContext(ctx, core.QuerySpec{Follow: true}, func(m core.MessageRef) error {
			now := time.Now()
			i := delivered
			delivered++
			if i < prefix {
				snap.see(m.Conn.Topic, m.Time, m.Data)
				if delivered == prefix {
					close(caughtUp)
				}
				return nil
			}
			j := i - prefix
			if j >= tail {
				return fmt.Errorf("%w: follow delivered more than the %d written messages", errWrong, len(feed))
			}
			if want := feed[i]; digest(topicHash(m.Conn.Topic), m.Time, m.Data) != want.digest && tailErr == nil {
				tailErr = fmt.Errorf("%w: follow tail message %d is not the %d-th written", errWrong, j, i)
			}
			originMu.Lock()
			o := origin
			originMu.Unlock()
			lags = append(lags, us(now.Sub(o.Add(due[j]))))
			return nil
		})
		endF()
		if err == nil {
			err = tailErr
		}
		done <- err
	}()
	select {
	case <-caughtUp:
	case err := <-done:
		if err == nil {
			err = fmt.Errorf("%w: follow ended after %d of %d snapshot messages", errWrong, delivered, prefix)
		}
		return int64(prefix), err
	}
	if err := snap.check(want, "follow snapshot"); err != nil {
		cancel()
		<-done
		return int64(prefix), err
	}

	// Collect the prefix's garbage now, so a GC cycle it triggered does
	// not land in the paced tail and show up as follow lag.
	runtime.GC()
	originMu.Lock()
	origin = time.Now()
	originMu.Unlock()
	late := make([]float64, 0, tail)
	end = sp.call("core.Recorder.WriteMessage(paced tail)")
	for j := 0; j < tail; j++ {
		at := origin.Add(due[j])
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		late = append(late, us(time.Since(at)))
		if err := write(&feed[prefix+j]); err != nil {
			end()
			cancel()
			<-done
			return int64(prefix + j), err
		}
	}
	end()
	s0 := time.Now()
	end = sp.call("core.Recorder.Seal")
	err = rec.Seal()
	end()
	sealed = true
	r.add("recorder.seal_ms", ms(time.Since(s0)))
	if err != nil {
		cancel()
		<-done
		return int64(len(feed)), err
	}
	if err := <-done; err != nil {
		return int64(len(feed)), err
	}
	if delivered != len(feed) {
		return int64(len(feed)), fmt.Errorf("%w: follow delivered %d of %d messages", errWrong, delivered, len(feed))
	}
	// Quantiles are taken per cycle and reported as the median over
	// cycles, so one cycle stalled by the host moves them less.
	r.add("follow_lag_p50_us", quantile(lags, 0.5))
	r.add("follow_lag_p90_us", quantile(lags, 0.9))
	r.add("generator_late_p90_us", quantile(late, 0.9))
	r.add("follow_delivered", float64(delivered)/float64(len(feed)))
	return int64(len(feed)), nil
}

// buildCycle builds a fixed three-derivation graph from bag from (whose
// content is src's): /imu, a stride-4 derivation of it, and a 1 s
// window of /tf and /cortex_marker_array. It builds cold once, checking
// every derivation rebuilt with the oracle's message count, then
// cfg.size.noopBuilds times, checking nothing rebuilt. It returns the
// output names.
func buildCycle(cfg config, b *core.BORA, from string, src *bagOracle, r *recorder, sp spanner) ([]string, error) {
	winStart := float64(src.start / 1e9)
	winEnd := winStart + 1
	g, err := build.NewGraph([]build.Derivation{
		{Name: "drv-imu", From: from, TransformSpec: core.TransformSpec{Topics: []string{"/imu"}}},
		{Name: "drv-imu-s4", From: "drv-imu", TransformSpec: core.TransformSpec{Stride: 4}},
		{Name: "drv-win", From: from, TransformSpec: core.TransformSpec{Topics: []string{"/tf", "/cortex_marker_array"}, StartSec: &winStart, EndSec: &winEnd}},
	})
	if err != nil {
		return nil, err
	}
	outs := []string{"drv-imu", "drv-imu-s4", "drv-win"}
	imu := src.expected([]string{"/imu"}, 0, 0).count
	wantMsgs := map[string]int64{
		"drv-imu":    imu,
		"drv-imu-s4": int64(math.Ceil(float64(imu) / 4)),
		"drv-win":    src.expected([]string{"/tf", "/cortex_marker_array"}, int64(winStart)*1e9, int64(winEnd)*1e9).count,
	}
	bld := build.New(b, build.Options{})
	for i := 0; i < cfg.size.probeReps; i++ {
		t0 := time.Now()
		if _, _, err := b.ProbeBag(from); err != nil {
			return outs, err
		}
		r.add("build.probe_us", us(time.Since(t0)))
	}

	t0 := time.Now()
	end := sp.call("build.Builder.Build(cold)")
	res, err := bld.Build(g)
	end()
	r.add("build.cold_ms", ms(time.Since(t0)))
	if err != nil {
		return outs, err
	}
	var hits, lookups int
	for _, x := range res {
		lookups++
		if !x.Rebuilt {
			return outs, fmt.Errorf("%w: cold build of %s reported no rebuild", errWrong, x.Name)
		}
		if x.Messages != wantMsgs[x.Name] {
			return outs, fmt.Errorf("%w: build of %s kept %d msgs, oracle says %d", errWrong, x.Name, x.Messages, wantMsgs[x.Name])
		}
	}
	for i := 0; i < cfg.size.noopBuilds; i++ {
		t0 := time.Now()
		end := sp.call("build.Builder.Build(no-op)")
		res, err := bld.Build(g)
		end()
		r.add("build_noop_ms", ms(time.Since(t0)))
		if err != nil {
			return outs, err
		}
		for _, x := range res {
			lookups++
			if x.Rebuilt {
				return outs, fmt.Errorf("%w: no-op build rebuilt %s", errWrong, x.Name)
			}
			hits++
		}
	}
	r.add("build_hits", float64(hits))
	r.add("build_lookups", float64(lookups))
	return outs, nil
}

// companions runs a read workload's cfg.size.companionCycles companion
// ingest cycles: ingest cycles without the verification queries, on the
// workload's own fixture, so every end-to-end metric exists on every
// workload. Duplicate, live recording, Follow and builds run against
// this workload's fixture and warm state.
type companions struct {
	cfg  config
	f    *fixture
	r    *recorder
	feed []feedMsg
	// used is the process usage of the cycles run so far, which the
	// main loop's accounting leaves out.
	used usage
}

func newCompanions(cfg config, f *fixture, r *recorder) (*companions, error) {
	feed, err := captureFeed(cfg.size.companionSeconds, cfg.size.scaleDown, cfg.seed*1009+1)
	if err != nil {
		return nil, err
	}
	return &companions{cfg: cfg, f: f, r: r, feed: feed}, nil
}

// interleave runs a read workload's measured phase of cfg.seconds. The
// main loop runs in stretches, read(until) each, and companion cycle k
// runs between them once (k+½)/n of the phase has passed. The host's
// speed drifts from second to second, so cycles spread over the whole
// phase steady the companion metrics more than a block of cycles at its
// end would. Cycles still due when the phase ends run after it.
// interleave returns the wall time of the main loop's stretches.
func (c *companions) interleave(read func(until time.Time) error) (time.Duration, error) {
	n := c.cfg.size.companionCycles
	phase := time.Duration(c.cfg.seconds * float64(time.Second))
	start := time.Now()
	var looped time.Duration
	stretch := func(until time.Time) error {
		t0 := time.Now()
		if !t0.Before(until) {
			return nil
		}
		err := read(until)
		looped += time.Since(t0)
		return err
	}
	for k := 0; k < n; k++ {
		if err := stretch(start.Add(time.Duration((float64(k) + 0.5) / float64(n) * float64(phase)))); err != nil {
			return looped, err
		}
		before := readUsage()
		_, err := ingestCycle(c.cfg, c.f, c.r, cycleOpts{k: k, feed: c.feed}, spanner{})
		c.used = c.used.add(readUsage().sub(before))
		if errors.Is(err, errWrong) {
			return looped, err
		}
	}
	return looped, stretch(start.Add(phase))
}
