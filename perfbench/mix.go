package main

import (
	"math/rand"

	"repro/internal/bagio"
	"repro/internal/core"
	"repro/internal/workload"
)

// Query kinds, each with its own latency metrics.
const (
	kindTopic  = "topic"  // whole-axis topic query
	kindWindow = "window" // topics + time window
	kindChrono = "chrono" // OrderTime over several topics
)

// query is one generated query against one fixture bag.
type query struct {
	kind       string
	bag        int // index into the fixture
	topics     []string
	start, end int64 // ns; 0 = unbounded on that side
}

// spec is the query as a core.QuerySpec.
func (q query) spec() core.QuerySpec {
	s := core.QuerySpec{Topics: q.topics}
	if q.start != 0 {
		s.Start = bagio.TimeFromNanos(q.start)
	}
	if q.end != 0 {
		s.End = bagio.TimeFromNanos(q.end)
	}
	if q.kind == kindChrono {
		s.Order = core.OrderTime
	}
	return s
}

const (
	imu    = workload.TopicIMU
	tf     = workload.TopicTF
	marker = workload.TopicMarkerArray
	rgb    = workload.TopicRGBImage
	depth  = workload.TopicDepthImage
	rgbCI  = workload.TopicRGBCameraInfo
	depCI  = workload.TopicDepthCameraInfo
)

// The query mix is a set of decks of query templates. Each deck is
// dealt in a seeded random order and reshuffled when exhausted, so the
// seed picks the order, the bag and each window's position, while the
// mix's make-up stays fixed: a median does not jump between the cost
// clusters of a few hundred ops when the seed changes.
var (
	// kindDeck: ~50% topic, ~40% windowed, ~10% chronological queries.
	kindDeck = []string{kindTopic, kindTopic, kindTopic, kindTopic, kindTopic, kindWindow, kindWindow, kindWindow, kindWindow, kindChrono}

	// topicDeck favours the ~300-byte high-rate topics, which carry most
	// messages, and includes each Table III application's topic set.
	topicDeck = func() [][]string {
		d := [][]string{{imu}, {imu}, {imu}, {imu}, {tf}, {tf}, {tf}, {tf}, {marker}, {marker}, {marker}, {marker}, {rgb}, {depth}, {rgbCI}, {depCI}}
		for _, a := range workload.Apps() {
			d = append(d, a.Topics)
		}
		return d
	}()

	// windowDeck: 1-5 s windows over 1-3 topics; a quarter are half-open.
	windowDeck = []windowTemplate{
		{[]string{imu}, 1, 0}, {[]string{tf}, 2, 0}, {[]string{marker}, 3, 0}, {[]string{imu}, 4, openEnd},
		{[]string{tf}, 5, 0}, {[]string{marker}, 1, 0}, {[]string{imu, tf}, 2, 0}, {[]string{tf, marker}, 3, openStart},
		{[]string{imu, marker}, 4, 0}, {[]string{imu, rgb}, 5, 0}, {[]string{marker, rgbCI}, 1, 0}, {[]string{tf, depth}, 2, openEnd},
		{[]string{imu, tf, marker}, 3, 0}, {[]string{imu, tf, rgb}, 4, 0}, {[]string{tf, marker, depCI}, 5, 0}, {[]string{imu, marker, depth}, 1, openStart},
	}

	// chronoDeck: OrderTime merges over 2-3 topics.
	chronoDeck = [][]string{{imu, tf}, {tf, marker}, {imu, marker, tf}, {marker, rgbCI, imu}}
)

// Half-open window kinds.
const (
	openEnd   = 1 // the last `seconds` of the bag, End unset
	openStart = 2 // the first `seconds` of the bag, Start unset
)

type windowTemplate struct {
	topics  []string
	seconds int64
	half    int
}

// deck deals 0..n-1 in a seeded random order, reshuffling each pass.
type deck struct {
	order []int
	pos   int
}

func (d *deck) deal(rng *rand.Rand, n int) int {
	if d.pos == len(d.order) {
		d.order, d.pos = rng.Perm(n), 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// mix generates the seeded query sequence over a fixture's bags.
type mix struct {
	rng                          *rand.Rand
	bags                         []*bagOracle
	kinds, topic, window, chrono deck
}

func newMix(seed int64, bags []*bagOracle) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed)), bags: bags}
}

func (m *mix) next() query {
	return m.nextKind(kindDeck[m.kinds.deal(m.rng, len(kindDeck))])
}

// nextKind deals the next query of the given kind.
func (m *mix) nextKind(kind string) query {
	q := query{kind: kind, bag: m.rng.Intn(len(m.bags))}
	o := m.bags[q.bag]
	switch kind {
	case kindTopic:
		q.topics = topicDeck[m.topic.deal(m.rng, len(topicDeck))]
	case kindWindow:
		w := windowDeck[m.window.deal(m.rng, len(windowDeck))]
		q.topics = w.topics
		length := w.seconds * 1e9
		span := max(o.end-o.start-length, 1)
		q.start = o.start + m.rng.Int63n(span)
		q.end = q.start + length
		switch w.half {
		case openEnd:
			q.start, q.end = o.end-length, 0
		case openStart:
			q.start, q.end = 0, o.start+length
		}
	case kindChrono:
		q.topics = chronoDeck[m.chrono.deal(m.rng, len(chronoDeck))]
	}
	return q
}
