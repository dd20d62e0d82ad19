package main

import (
	"fmt"
	"hash/maphash"
	"os"
	"sort"

	"repro/internal/bagio"
	"repro/internal/rosbag"
)

// The oracle is built from one rosbag.Scan pass over a source .bag. It
// shares no code with BORA's container, index or query paths. It does
// share the .bag parser with BORA's duplicate, so makeSources checks
// every oracle against the generator's own unparsed stream.
//
// Each message is reduced to a 64-bit digest of (topic, time, payload).
// A query's expected result is a count and an order-insensitive
// checksum (the wrapping sum of digests), read in O(log n) per topic
// from prefix sums over the topic's time-sorted digests.

var digestSeed = maphash.MakeSeed()

// digest identifies one message. topicKey is topicHash(topic).
func digest(topicKey uint64, t bagio.Time, data []byte) uint64 {
	h := maphash.Bytes(digestSeed, data)
	return mix64(h ^ mix64(uint64(t.Nanos())+topicKey))
}

func topicHash(topic string) uint64 { return maphash.String(digestSeed, topic) }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// topicOracle is one topic's messages in time order.
type topicOracle struct {
	times   []int64  // receive times (ns), non-decreasing
	digests []uint64 // aligned with times
	prefix  []uint64 // prefix[i] = sum of digests[:i]
}

// bagOracle is the expected content of one source bag.
type bagOracle struct {
	path       string
	size       int64 // .bag file bytes
	topics     map[string]*topicOracle
	keys       map[string]uint64 // topic -> topicHash
	start, end int64             // time range (ns)
}

// buildOracle scans the .bag at path once.
func buildOracle(path string) (*bagOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	o := &bagOracle{path: path, size: st.Size(), topics: map[string]*topicOracle{}, keys: map[string]uint64{}}
	o.start = int64(^uint64(0) >> 1)
	err = rosbag.Scan(f, st.Size(), func(conn *bagio.Connection, t bagio.Time, data []byte) error {
		to := o.topics[conn.Topic]
		if to == nil {
			to = &topicOracle{}
			o.topics[conn.Topic] = to
			o.keys[conn.Topic] = topicHash(conn.Topic)
		}
		n := t.Nanos()
		to.times = append(to.times, n)
		to.digests = append(to.digests, digest(o.keys[conn.Topic], t, data))
		o.start = min(o.start, n)
		o.end = max(o.end, n)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oracle scan of %s: %w", path, err)
	}
	for _, to := range o.topics {
		// Scan yields file order; sort each topic by time (stable, so
		// equal stamps keep file order) before taking prefix sums.
		idx := make([]int, len(to.times))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return to.times[idx[a]] < to.times[idx[b]] })
		times := make([]int64, len(idx))
		digests := make([]uint64, len(idx))
		for i, j := range idx {
			times[i], digests[i] = to.times[j], to.digests[j]
		}
		to.times, to.digests = times, digests
		to.prefix = make([]uint64, len(digests)+1)
		for i, d := range digests {
			to.prefix[i+1] = to.prefix[i] + d
		}
	}
	return o, nil
}

// matches checks the oracle against the generator's stream: written
// messages in all, and each topic's count and digest sum in feed.
func (o *bagOracle) matches(written uint64, feed []feedMsg) error {
	type topicSum struct {
		count int64
		sum   uint64
	}
	gen := map[string]*topicSum{}
	for _, m := range feed {
		g := gen[m.topic]
		if g == nil {
			g = &topicSum{}
			gen[m.topic] = g
		}
		g.count++
		g.sum += m.digest
	}
	var n int64
	for _, to := range o.topics {
		n += int64(len(to.times))
	}
	if uint64(n) != written || len(feed) != int(n) || len(o.topics) != len(gen) {
		return fmt.Errorf("%w: oracle of %s has %d msgs on %d topics, the generator wrote %d (%d fed) on %d",
			errWrong, o.path, n, len(o.topics), written, len(feed), len(gen))
	}
	for topic, g := range gen {
		to := o.topics[topic]
		if to == nil || int64(len(to.times)) != g.count || to.prefix[len(to.times)] != g.sum {
			return fmt.Errorf("%w: oracle of %s disagrees with the generator on %s", errWrong, o.path, topic)
		}
	}
	return nil
}

// topicNames returns the bag's topics, sorted.
func (o *bagOracle) topicNames() []string {
	out := make([]string, 0, len(o.topics))
	for t := range o.topics {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// expect is what a query must deliver: a count and a digest sum, plus
// the count per topic (used by the layer cost model).
type expect struct {
	count    int64
	sum      uint64
	perTopic map[string]int64
}

// expected answers a query over topics (empty = all) and the inclusive
// window [start, end] in nanoseconds, end 0 meaning unbounded.
func (o *bagOracle) expected(topics []string, start, end int64) expect {
	if len(topics) == 0 {
		topics = o.topicNames()
	}
	if end == 0 {
		end = int64(^uint64(0) >> 1)
	}
	e := expect{perTopic: map[string]int64{}}
	for _, t := range topics {
		to := o.topics[t]
		if to == nil {
			continue
		}
		lo := sort.Search(len(to.times), func(i int) bool { return to.times[i] >= start })
		hi := sort.Search(len(to.times), func(i int) bool { return to.times[i] > end })
		if hi <= lo {
			continue
		}
		e.count += int64(hi - lo)
		e.sum += to.prefix[hi] - to.prefix[lo]
		e.perTopic[t] = int64(hi - lo)
	}
	return e
}

// tally accumulates what a query delivered and checks ordering as the
// messages arrive: per topic always, globally when chrono is set.
type tally struct {
	keys   map[string]uint64
	chrono bool

	count, bytes int64
	sum          uint64
	last         int64
	lastByTopic  map[string]int64
	orderErr     error
	drop         bool // skip the next message (liveness test of the check)
}

func newTally(o *bagOracle, chrono bool) *tally {
	return &tally{keys: o.keys, chrono: chrono, lastByTopic: map[string]int64{}}
}

// see records one delivered message.
func (t *tally) see(topic string, tm bagio.Time, data []byte) {
	if t.drop {
		t.drop = false
		return
	}
	n := tm.Nanos()
	if t.orderErr == nil {
		if t.chrono && n < t.last {
			t.orderErr = fmt.Errorf("chrono order broken: %d after %d", n, t.last)
		}
		if prev, ok := t.lastByTopic[topic]; ok && n < prev {
			t.orderErr = fmt.Errorf("topic %s order broken: %d after %d", topic, n, prev)
		}
	}
	t.last = n
	t.lastByTopic[topic] = n
	key, ok := t.keys[topic]
	if !ok {
		key = topicHash(topic)
	}
	t.sum += digest(key, tm, data)
	t.count++
	t.bytes += int64(len(data))
}

// check compares the tally with the oracle's answer.
func (t *tally) check(want expect, what string) error {
	if t.orderErr != nil {
		return fmt.Errorf("%w: %s: %v", errWrong, what, t.orderErr)
	}
	if t.count != want.count || t.sum != want.sum {
		return fmt.Errorf("%w: %s: got %d msgs (sum %x), oracle says %d (sum %x)", errWrong, what, t.count, t.sum, want.count, want.sum)
	}
	return nil
}
