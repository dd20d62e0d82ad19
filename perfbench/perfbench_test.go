package main

import (
	"errors"
	"testing"
	"time"
)

// smallSizes runs every code path in a second or two (for tests).
var smallSizes = sizes{
	bagSeconds: 2, scaleDown: 2000,
	coldBags: 2, servedBags: 2,
	ingestSeconds: 2, companionSeconds: 2,
	tailMsgs: 300, segWindow: time.Second,
	setupReps: 2, companionCycles: 1, noopBuilds: 3,
	probeOps: 8, probeReps: 2,
}

func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.3, trace: trace, work: t.TempDir(), size: smallSizes}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, with the oracle on, and checks each prints its full metric set.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range []string{"cold-read", "served-read", "ingest"} {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, wl, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Value == nil {
					t.Errorf("%s trace=%v: metric %s missing (%s)", wl, trace, m.name, got.Why)
				}
			}
		}
	}
}

// TestDroppedMessageFailsRun proves the correctness check is live: one
// message withheld from the oracle's tally must fail the run, on every
// workload.
func TestDroppedMessageFailsRun(t *testing.T) {
	for _, wl := range []string{"cold-read", "served-read", "ingest"} {
		cfg := smallConfig(t, wl, false)
		cfg.dropOne = true
		res, err := run(cfg)
		if !errors.Is(err, errWrong) {
			t.Fatalf("%s: dropped message gave err=%v, want a wrong-result error", wl, err)
		}
		if res == nil || res.Correct {
			t.Fatalf("%s: dropped message still reported correct", wl)
		}
	}
}

// TestOracleAnswersWindows checks the oracle's prefix-sum answer against
// a direct count over a generated bag.
func TestOracleAnswersWindows(t *testing.T) {
	srcs, err := makeSources(t.TempDir(), 1, 2, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := srcs[0]
	m := newMix(9, srcs)
	for i := 0; i < 200; i++ {
		q := m.next()
		end := q.end
		if end == 0 {
			end = 1 << 62
		}
		var n int64
		for _, topic := range q.topics {
			for _, tm := range o.topics[topic].times {
				if tm >= q.start && tm <= end {
					n++
				}
			}
		}
		if got := o.expected(q.topics, q.start, q.end).count; got != n {
			t.Fatalf("query %+v: oracle says %d, direct count %d", q, got, n)
		}
	}
}

// TestOracleMatchesGenerator checks that the oracle is compared with the
// generator's own stream: a message lost or altered in the .bag parse
// must fail the comparison.
func TestOracleMatchesGenerator(t *testing.T) {
	srcs, err := makeSources(t.TempDir(), 1, 2, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	o := srcs[0]
	feed, err := captureFeed(2, 2000, 5*1009)
	if err != nil {
		t.Fatal(err)
	}
	written := uint64(len(feed))
	if err := o.matches(written, feed); err != nil {
		t.Fatalf("untouched oracle: %v", err)
	}
	if err := o.matches(written, feed[1:]); !errors.Is(err, errWrong) {
		t.Fatalf("lost message: err=%v, want a wrong-result error", err)
	}
	feed[0].digest++
	if err := o.matches(written, feed); !errors.Is(err, errWrong) {
		t.Fatalf("altered message: err=%v, want a wrong-result error", err)
	}
}
