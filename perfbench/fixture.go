package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/workload"
)

// sizes fixes how much work a run does outside its timed main loop.
type sizes struct {
	bagSeconds, scaleDown int           // one fixture bag: seconds of handheld-SLAM data, payload scale-down
	coldBags, servedBags  int           // fixture bags per read workload
	ingestSeconds         int           // ingest source bag length
	companionSeconds      int           // feed length of the companion ingest cycles on read workloads
	tailMsgs              int           // live-recording tail replayed at the feed's own pace
	segWindow             time.Duration // live segment rotation window (bag time)
	setupReps             int           // set-ups per run; setup_s is their median
	companionCycles       int
	noopBuilds            int // no-op builds per ingest cycle
	probeOps              int // cold ops of the core probe, remote ops of the server probe
	probeReps             int // repetitions of each single-call layer probe
}

// fullSizes is the benchmark. One fixture bag is 30 s of data at
// ScaleDown 200: about 20 MB and 38,160 messages. cold-read's four bags
// exceed the pool's 64 MiB default block cache; served-read's two fit.
// The feed carries 1,272 msgs per second of bag time, so a 500-message
// tail replays about 0.4 s of traffic per cycle.
var fullSizes = sizes{
	bagSeconds: 30, scaleDown: 200,
	coldBags: 4, servedBags: 2,
	ingestSeconds: 20, companionSeconds: 10,
	tailMsgs: 500, segWindow: 10 * time.Second,
	setupReps: 9, companionCycles: 12, noopBuilds: 30,
	probeOps: 60, probeReps: 5,
}

// fixture is a workload's source bags, their oracles, and the BORA back
// end they were duplicated into.
type fixture struct {
	srcs  []*bagOracle
	names []string // bag names in b, aligned with srcs
	b     *core.BORA
	root  string
}

// makeSources writes n seeded handheld-SLAM bags under dir and scans
// each into an oracle. The seed changes every payload; the shape
// (topics, rates, timestamps) is the generator's. Each oracle is then
// checked against the generator's own stream at the same options, which
// never passes through rosbag, so a parse that drops or alters messages
// cannot agree with both the oracle and BORA's duplicate.
func makeSources(dir string, n, seconds, scale int, seed int64) ([]*bagOracle, error) {
	var out []*bagOracle
	for i := 0; i < n; i++ {
		p := filepath.Join(dir, fmt.Sprintf("src-%d.bag", i))
		opts := workload.SyntheticOptions{Seconds: seconds, ScaleDown: scale, Seed: seed*1009 + int64(i)}
		written, err := workload.WriteHandheldSLAMBag(p, opts)
		if err != nil {
			return nil, fmt.Errorf("write source bag: %w", err)
		}
		o, err := buildOracle(p)
		if err != nil {
			return nil, err
		}
		feed, err := captureFeed(seconds, scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		if err := o.matches(written, feed); err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// setUp duplicates every source into a fresh back end, cfg.setupReps
// times, and keeps the last. Each repetition's time (back-end creation,
// the duplications, and extra, if any) is one setup_s sample; each
// duplication is one duplicate_mb_per_s and stored_bytes_ratio sample.
// extra finishes a workload's set-up on the new back end and returns
// the function that tears it down again.
func setUp(cfg config, dir string, srcs []*bagOracle, r *recorder, extra func(f *fixture) (func(), error)) (*fixture, func(), error) {
	var keep *fixture
	teardown := func() {}
	for rep := 0; rep < cfg.size.setupReps; rep++ {
		if keep != nil {
			teardown()
			if err := os.RemoveAll(keep.root); err != nil {
				return nil, nil, err
			}
		}
		root := filepath.Join(dir, fmt.Sprintf("backend-%d", rep))
		// Flush the generated inputs and the last repetition's removal
		// first, so their write-back does not land in this one's time.
		syscall.Sync()
		t0 := time.Now()
		b, err := core.New(root, core.Options{})
		if err != nil {
			return nil, nil, err
		}
		f := &fixture{srcs: srcs, b: b, root: root}
		var dups []time.Duration
		for i, o := range srcs {
			name := fmt.Sprintf("bag-%d", i)
			d0 := time.Now()
			if _, _, err := b.Duplicate(o.path, name); err != nil {
				return nil, nil, fmt.Errorf("duplicate %s: %w", o.path, err)
			}
			dups = append(dups, time.Since(d0))
			f.names = append(f.names, name)
		}
		teardown = func() {}
		if extra != nil {
			if teardown, err = extra(f); err != nil {
				return nil, nil, err
			}
		}
		r.add("setup_s", time.Since(t0).Seconds())
		for i, o := range srcs {
			r.add("duplicate_mb_per_s", float64(o.size)/1e6/dups[i].Seconds())
			stored, err := dirBytes(filepath.Join(root, f.names[i]))
			if err != nil {
				return nil, nil, err
			}
			r.add("stored_bytes_ratio", float64(stored)/float64(o.size))
		}
		keep = f
	}
	runtime.GC() // start the main loop without the set-up's garbage
	return keep, teardown, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// feedMsg is one message of a live-recording feed, in write order.
type feedMsg struct {
	topic, typ string
	t          bagio.Time
	data       []byte
	digest     uint64
}

// captureSink collects workload.RecordHandheldSLAM's output so the live
// recording can replay it at a chosen pace, with the generator's cost
// outside the timed writes.
type captureSink struct {
	topics []string
	types  []string
	msgs   []feedMsg
}

func (c *captureSink) AddConnection(topic, msgType string) (uint32, error) {
	c.topics = append(c.topics, topic)
	c.types = append(c.types, msgType)
	return uint32(len(c.topics) - 1), nil
}

func (c *captureSink) WriteMessage(conn uint32, t bagio.Time, data []byte) error {
	topic := c.topics[conn]
	c.msgs = append(c.msgs, feedMsg{
		topic: topic, typ: c.types[conn], t: t,
		data: append([]byte(nil), data...), digest: digest(topicHash(topic), t, data),
	})
	return nil
}

func (c *captureSink) Seal() error { return nil }

// captureFeed generates a seeded live-recording feed in time order.
// The generator emits each second topic by topic; a live recorder
// receives messages as they happen, so the feed is stably sorted by
// time, and its timestamps can pace a replay.
func captureFeed(seconds, scale int, seed int64) ([]feedMsg, error) {
	var c captureSink
	if _, err := workload.RecordHandheldSLAM(&c, workload.SyntheticOptions{Seconds: seconds, ScaleDown: scale, Seed: seed}); err != nil {
		return nil, err
	}
	sort.SliceStable(c.msgs, func(i, j int) bool { return c.msgs[i].t.Nanos() < c.msgs[j].t.Nanos() })
	return c.msgs, nil
}
