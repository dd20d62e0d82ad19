package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/organizer"
	"repro/internal/rosbag"
	"repro/internal/server/wire"
	"repro/internal/tagman"
	"repro/internal/timeindex"
	"repro/internal/workload"
)

// The layer probes time the benchmark's own calls into each package's
// public functions, on the running workload's fixture (bag 0 of it for
// the single-bag probes). They run only in traced runs, after the main
// loop. Every count they report is deterministic for a seed.

// servedProbe hands a served-read run's live server and main-loop
// measurements to the probes; other workloads start a probe server.
type servedProbe struct {
	s    *served
	loop *remoteRun
}

// layerCosts are per-call and per-topic costs the cost model of
// core.unattributed_share composes.
type layerCosts struct {
	containerOpenUs, tagmanUs, tixProbeUs float64
	indexLoadUs, tixLoadUs, readNsPerMsg  map[string]float64
}

func probeLayers(cfg config, dir string, f *fixture, r *recorder, sp *servedProbe) error {
	costs, err := probeContainerRead(cfg, f, r)
	if err != nil {
		return err
	}
	if err := probeCore(cfg, f, r, costs, sp == nil); err != nil {
		return err
	}
	if err := probeRosbag(cfg, f, r); err != nil {
		return err
	}
	msgs, err := loadMessages(f.srcs[0].path)
	if err != nil {
		return err
	}
	if err := probeWrite(cfg, dir, msgs, r); err != nil {
		return err
	}
	encNs, decNs, err := probeWire(msgs, r)
	if err != nil {
		return err
	}
	if err := probeServed(cfg, f, r, sp, encNs+decNs); err != nil {
		return err
	}
	r.setQuantile("recorder.write_ns_per_msg", "recorder.write_ns_per_msg", 0.5)
	r.setQuantile("recorder.seal_ms", "recorder.seal_ms", 0.5)
	r.setQuantile("follow.delivered_ratio", "follow_delivered", 0)
	r.setQuantile("ingest.generator_late_us_p90", "generator_late_p90_us", 0.5)
	r.setQuantile("build.cold_ms", "build.cold_ms", 0.5)
	r.setQuantile("build.probe_us", "build.probe_us", 0.5)
	hits, lookups := sum(r.get("build_hits")), sum(r.get("build_lookups"))
	if lookups == 0 {
		r.setMissing("build.cache_hit_ratio", "no build ran")
	} else {
		r.set("build.cache_hit_ratio", hits/lookups)
	}
	return nil
}

func sum(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// countingReaderAt counts ReadAt calls (one pread each on a file).
type countingReaderAt struct {
	r     io.ReaderAt
	calls int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	return c.r.ReadAt(p, off)
}

// probeContainerRead times container.Open, Topic.Entries, the
// TimeIdxFileName load and QuerySorted, tagman.Build, and OpenData +
// ReadMessageInto of every message through a counting ReaderAt.
func probeContainerRead(cfg config, f *fixture, r *recorder) (*layerCosts, error) {
	root := filepath.Join(f.root, f.names[0])
	costs := &layerCosts{indexLoadUs: map[string]float64{}, tixLoadUs: map[string]float64{}, readNsPerMsg: map[string]float64{}}
	idx := map[string][]float64{}
	tix := map[string][]float64{}
	var opens, tags []float64
	var c *container.Container
	for rep := 0; rep < cfg.size.probeReps; rep++ {
		t0 := time.Now()
		var err error
		if c, err = container.Open(root); err != nil {
			return nil, err
		}
		opens = append(opens, us(time.Since(t0)))
		paths := map[string]string{}
		for _, name := range c.Topics() {
			t, err := c.Topic(name)
			if err != nil {
				return nil, err
			}
			paths[name] = t.Dir()
			t0 := time.Now()
			if _, err := t.Entries(); err != nil {
				return nil, err
			}
			idx[name] = append(idx[name], us(time.Since(t0)))
			t0 = time.Now()
			buf, err := os.ReadFile(filepath.Join(t.Dir(), container.TimeIdxFileName))
			if err != nil {
				return nil, err
			}
			if _, err := timeindex.Unmarshal(buf); err != nil {
				return nil, err
			}
			tix[name] = append(tix[name], us(time.Since(t0)))
		}
		t0 = time.Now()
		tagman.Build(paths)
		tags = append(tags, us(time.Since(t0)))
	}
	costs.containerOpenUs, costs.tagmanUs = median(opens), median(tags)
	r.set("container.open_us", costs.containerOpenUs)
	r.set("tagman.build_us", costs.tagmanUs)
	for name := range idx {
		costs.indexLoadUs[name], costs.tixLoadUs[name] = median(idx[name]), median(tix[name])
	}
	r.set("container.index_load_us", costs.indexLoadUs[workload.TopicIMU])
	r.set("timeindex.load_us", costs.tixLoadUs[workload.TopicIMU])

	// Reads: every message of every topic, once, warm page cache.
	var readNs, msgs, calls float64
	for _, name := range c.Topics() {
		t, err := c.Topic(name)
		if err != nil {
			return nil, err
		}
		entries, err := t.Entries()
		if err != nil {
			return nil, err
		}
		df, err := t.OpenData()
		if err != nil {
			return nil, err
		}
		cr := &countingReaderAt{r: df}
		var scratch []byte
		t0 := time.Now()
		for _, e := range entries {
			if _, err := t.ReadMessageInto(cr, e, &scratch); err != nil {
				df.Close()
				return nil, err
			}
		}
		d := float64(time.Since(t0))
		df.Close()
		costs.readNsPerMsg[name] = d / float64(max(len(entries), 1))
		readNs, msgs, calls = readNs+d, msgs+float64(len(entries)), calls+float64(cr.calls)
	}
	r.set("container.read_ns_per_msg", readNs/msgs)
	r.set("container.preads_per_msg", calls/msgs)

	// Time-index probes: the mix's windowed queries against bag 0.
	m := newMix(cfg.seed+31, f.srcs[:1])
	ixs := map[string]*timeindex.Index{}
	var probes []float64
	var windows, queries float64
	for i := 0; i < cfg.size.probeOps; i++ {
		q := m.nextKind(kindWindow)
		s := q.spec()
		end := s.End
		if end.IsZero() {
			end = bagio.MaxTime
		}
		for _, name := range q.topics {
			ix := ixs[name]
			if ix == nil {
				t, err := c.Topic(name)
				if err != nil {
					return nil, err
				}
				buf, err := os.ReadFile(filepath.Join(t.Dir(), container.TimeIdxFileName))
				if err != nil {
					return nil, err
				}
				if ix, err = timeindex.Unmarshal(buf); err != nil {
					return nil, err
				}
				ixs[name] = ix
			}
			t0 := time.Now()
			ix.QuerySorted(s.Start, end)
			probes = append(probes, us(time.Since(t0)))
			windows += float64(ix.WindowsScanned(s.Start, end))
		}
		queries++
	}
	costs.tixProbeUs = median(probes)
	r.set("timeindex.probe_us", costs.tixProbeUs)
	r.set("timeindex.windows_per_query", windows/queries)
	return costs, nil
}

// probeCore runs cfg.size.probeOps cold ops of the mix (Open + Query)
// with outside-in counters around each: /proc/self/io, getrusage,
// runtime.MemStats and the fresh handle's Bag.Stats. When model is set
// it also records core.unattributed_share: the share of the ops' time
// that the per-layer costs do not account for.
func probeCore(cfg config, f *fixture, r *recorder, costs *layerCosts, model bool) error {
	m := newMix(cfg.seed+17, f.srcs)
	var io ioCounters
	io.ok = true
	var opens []float64
	var user, sys time.Duration
	var mallocs uint64
	var msgs, payload, entries, windows, seeks, latency, attributed float64
	ops := 0
	for i := 0; i < cfg.size.probeOps; i++ {
		q := m.next()
		u0, io0 := readUsage(), readIO()
		res, err := coldOp(f.b, f.names[q.bag], f.srcs[q.bag], q, spanner{}, false)
		io1, u1 := readIO(), readUsage()
		if err != nil {
			return fmt.Errorf("core probe: %w", err)
		}
		d := io1.sub(io0)
		io.ok = io.ok && d.ok
		io.syscr += d.syscr
		io.rchar += d.rchar
		user += u1.user - u0.user
		sys += u1.sys - u0.sys
		mallocs += u1.mallocs - u0.mallocs
		opens = append(opens, us(res.open))
		msgs += float64(res.msgs)
		payload += float64(res.bytes)
		entries += float64(res.stats.EntriesScanned)
		windows += float64(res.stats.WindowsScanned)
		seeks += float64(res.stats.Seeks)
		ops++
		latency += us(res.latency)
		attributed += costs.containerOpenUs + costs.tagmanUs
		for t, n := range res.want.perTopic {
			attributed += costs.indexLoadUs[t] + float64(n)*costs.readNsPerMsg[t]/1e3
			if q.kind == kindWindow {
				attributed += costs.tixLoadUs[t] + costs.tixProbeUs
			}
		}
	}
	r.set("core.open_us", median(opens))
	r.setPerIO("core.read_syscalls_per_msg", io, float64(io.syscr), msgs)
	r.setPerIO("core.rchar_per_payload_byte", io, float64(io.rchar), payload)
	r.set("core.entries_scanned_per_msg", entries/msgs)
	r.set("core.windows_scanned_per_query", windows/float64(ops))
	r.set("core.seeks_per_query", seeks/float64(ops))
	r.set("core.allocs_per_query", float64(mallocs)/float64(ops))
	if user+sys > 0 {
		r.set("core.cpu_sys_share", float64(sys)/float64(user+sys))
	} else {
		r.setMissing("core.cpu_sys_share", "getrusage reported no CPU time")
	}
	if model {
		r.set("core.unattributed_share", 1-attributed/latency)
	}
	return nil
}

// probeRosbag times rosbag.Scan with an empty callback, and the stock
// rosbag open + /imu query beside BORA's cold /imu query (the paper's
// control group), both checked against the oracle.
func probeRosbag(cfg config, f *fixture, r *recorder) error {
	o := f.srcs[0]
	var scans []float64
	for i := 0; i < cfg.size.probeReps; i++ {
		fh, err := os.Open(o.path)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = rosbag.Scan(fh, o.size, func(*bagio.Connection, bagio.Time, []byte) error { return nil })
		d := time.Since(t0)
		fh.Close()
		if err != nil {
			return err
		}
		scans = append(scans, float64(o.size)/1e6/d.Seconds())
	}
	r.set("rosbag.scan_mb_per_s", median(scans))

	q := query{kind: kindTopic, topics: []string{workload.TopicIMU}}
	want := o.expected(q.topics, 0, 0)
	var stock, bora []float64
	for i := 0; i < min(3, cfg.size.probeReps); i++ {
		t := newTally(o, false)
		t0 := time.Now()
		br, fh, err := rosbag.Open(o.path)
		if err != nil {
			return err
		}
		err = br.ReadMessages(rosbag.Query{Topics: q.topics}, func(m rosbag.MessageRef) error {
			t.see(m.Conn.Topic, m.Time, m.Data)
			return nil
		})
		stock = append(stock, ms(time.Since(t0)))
		fh.Close()
		if err != nil {
			return err
		}
		if err := t.check(want, "stock rosbag /imu query"); err != nil {
			return err
		}
		res, err := coldOp(f.b, f.names[0], o, q, spanner{}, false)
		if err != nil {
			return err
		}
		bora = append(bora, ms(res.latency))
	}
	r.set("rosbag.open_query_ms", median(stock))
	r.set("rosbag.bora_cold_query_ms", median(bora))
	r.set("rosbag.stock_over_bora", median(stock)/median(bora))
	return nil
}

// bagMsg is one message of a source bag, held in memory.
type bagMsg struct {
	conn *bagio.Connection
	t    bagio.Time
	data []byte
}

func loadMessages(path string) ([]bagMsg, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	var out []bagMsg
	err = rosbag.Scan(fh, st.Size(), func(c *bagio.Connection, t bagio.Time, data []byte) error {
		out = append(out, bagMsg{conn: c, t: t, data: append([]byte(nil), data...)})
		return nil
	})
	return out, err
}

// discardSink is an organizer.TopicSink that keeps nothing.
type discardSink struct{ n *atomic.Int64 }

func (d discardSink) Append(bagio.Time, []byte) error { d.n.Add(1); return nil }
func (d discardSink) Close() error                    { return nil }

// probeWrite times organizer dispatch into discarding sinks, and
// container topic writes (CreateTopic, Append, Close, Seal) with the
// write syscalls they make.
func probeWrite(cfg config, dir string, msgs []bagMsg, r *recorder) error {
	var dispatch []float64
	var dropped int64
	for i := 0; i < cfg.size.probeReps; i++ {
		var n atomic.Int64
		d := organizer.New(func(*bagio.Connection) (organizer.TopicSink, error) { return discardSink{&n}, nil }, organizer.Options{})
		t0 := time.Now()
		for _, m := range msgs {
			if err := d.Dispatch(m.conn, m.t, m.data); err != nil {
				return err
			}
		}
		st, err := d.Close()
		if err != nil {
			return err
		}
		dispatch = append(dispatch, float64(time.Since(t0))/float64(len(msgs)))
		dropped += st.Dropped
		if n.Load() != int64(len(msgs)) {
			return fmt.Errorf("%w: organizer appended %d of %d messages", errWrong, n.Load(), len(msgs))
		}
	}
	r.set("organizer.dispatch_ns_per_msg", median(dispatch))
	r.set("organizer.dropped", float64(dropped))

	var appends []float64
	var syscw, total float64
	io := ioCounters{ok: true}
	for i := 0; i < min(3, cfg.size.probeReps); i++ {
		root := filepath.Join(dir, fmt.Sprintf("write-probe-%d", i))
		io0 := readIO()
		t0 := time.Now()
		c, err := container.Create(root)
		if err != nil {
			return err
		}
		writers := map[*bagio.Connection]*container.TopicWriter{}
		for _, m := range msgs {
			tw := writers[m.conn]
			if tw == nil {
				if tw, err = c.CreateTopic(m.conn); err != nil {
					return err
				}
				writers[m.conn] = tw
			}
			if err := tw.Append(m.t, m.data); err != nil {
				return err
			}
		}
		for _, tw := range writers {
			if err := tw.Close(); err != nil {
				return err
			}
		}
		if err := c.Seal(); err != nil {
			return err
		}
		appends = append(appends, float64(time.Since(t0))/float64(len(msgs)))
		d := readIO().sub(io0)
		io.ok = io.ok && d.ok
		syscw += float64(d.syscw)
		total += float64(len(msgs))
		if err := os.RemoveAll(root); err != nil {
			return err
		}
	}
	r.set("container.append_ns_per_msg", median(appends))
	r.setPerIO("container.write_syscalls_per_msg", io, syscw, total)
	return nil
}

// probeWire times wire.Encoder.WriteMsg to io.Discard and
// ReadFrameInto + DecodeMsg over the encoded stream, per message.
func probeWire(msgs []bagMsg, r *recorder) (encNs, decNs float64, err error) {
	var enc wire.Encoder
	t0 := time.Now()
	for _, m := range msgs {
		if err := enc.WriteMsg(io.Discard, wire.Msg{Time: m.t, Data: m.data}); err != nil {
			return 0, 0, err
		}
	}
	encNs = float64(time.Since(t0)) / float64(len(msgs))
	var stream bytes.Buffer
	for _, m := range msgs {
		if err := enc.WriteMsg(&stream, wire.Msg{Time: m.t, Data: m.data}); err != nil {
			return 0, 0, err
		}
	}
	rd := bytes.NewReader(stream.Bytes())
	var buf []byte
	n := 0
	t0 = time.Now()
	for {
		fr, err := wire.ReadFrameInto(rd, 0, &buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		if _, err := wire.DecodeMsg(fr.Payload); err != nil {
			return 0, 0, err
		}
		n++
	}
	decNs = float64(time.Since(t0)) / float64(len(msgs))
	if n != len(msgs) {
		return 0, 0, fmt.Errorf("%w: decoded %d of %d frames", errWrong, n, len(msgs))
	}
	r.set("wire.encode_ns_per_msg", encNs)
	r.set("wire.decode_ns_per_msg", decNs)
	return encNs, decNs, nil
}

// probeServed reports the server, client and pool layers: from the
// served-read main loop when sp is set, otherwise from a warm-up pass
// and a one-client probe loop of cfg.size.probeOps ops on a fresh
// server over this fixture. The loop's ops (up to probeOps) are then re-run in process
// through the same pool (Acquire + Query) for the local baseline.
func probeServed(cfg config, f *fixture, r *recorder, sp *servedProbe, wireNsPerMsg float64) error {
	var s *served
	var loop *remoteRun
	if sp != nil {
		s, loop = sp.s, sp.loop
	} else {
		var err error
		if s, err = startServed(f.b, 1); err != nil {
			return err
		}
		defer s.stop()
		// Warm up as served-read does. On cold-read the fixture is larger
		// than the block cache, so this pass already evicts.
		if err := s.warm(f); err != nil {
			return err
		}
		if loop, err = s.measureRemote(cfg, f, r, func(n int) bool { return n >= cfg.size.probeOps }, false); err != nil {
			return err
		}
	}
	var msgs float64
	var first []float64
	for _, res := range loop.ops {
		msgs += float64(res.msgs)
		if res.msgs > 0 {
			first = append(first, us(res.firstMsg))
		}
	}
	r.setPerIO("server.write_syscalls_per_msg", loop.io, float64(loop.io.syscw), msgs)
	r.setPerIO("client.read_syscalls_per_msg", loop.io, float64(loop.io.syscr), msgs)
	r.set("client.first_msg_us", median(first))
	r.set("server.queries_busy", float64(loop.busy))

	var acquires, local, remote []float64
	var remoteSum, modelSum float64
	for i, res := range loop.ops {
		if i >= cfg.size.probeOps {
			break
		}
		lres, err := pooledOp(s.pool, f.names[res.q.bag], f.srcs[res.q.bag], res.q)
		if err != nil {
			return fmt.Errorf("pool probe: %w", err)
		}
		acquires = append(acquires, us(lres.open))
		if res.q.kind == kindTopic {
			local = append(local, ms(lres.latency))
			remote = append(remote, ms(res.latency))
		}
		remoteSum += float64(res.latency)
		modelSum += float64(lres.latency) + float64(res.msgs)*wireNsPerMsg
	}
	st := s.pool.Stats()
	r.set("pool.acquire_us", median(acquires))
	r.set("pool.handle_hit_ratio", ratio(st.HandleHits, st.HandleHits+st.HandleMisses))
	r.set("pool.block_hit_ratio", ratio(st.Block.Hits, st.Block.Hits+st.Block.Misses))
	r.set("pool.block_evictions", float64(st.Block.Evictions))
	if len(local) == 0 {
		r.setMissing("pool.local_query_p50_ms", "the remote loop ran no topic query")
		r.setMissing("server.remote_query_p50_ms", "the remote loop ran no topic query")
		r.setMissing("server.remote_overhead_ms", "the remote loop ran no topic query")
	} else {
		r.set("pool.local_query_p50_ms", median(local))
		r.set("server.remote_query_p50_ms", median(remote))
		r.set("server.remote_overhead_ms", median(remote)-median(local))
	}
	if sp != nil {
		// On served-read the unattributed share is the part of remote
		// latency that neither the in-process pooled query nor wire
		// encode + decode accounts for: sockets, framing, scheduling.
		r.set("core.unattributed_share", 1-modelSum/remoteSum)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
