package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// value is one measured metric, or the reason it could not be measured.
type value struct {
	value   float64
	missing string
}

// recorder collects a run's samples, metric values and spans. Its
// methods are safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	values    map[string]value
	samples   map[string][]float64
	attempted int64
	failed    int64

	tracing bool
	epoch   time.Time
	spans   []span
	nextID  uint64
}

func newRecorder(tracing bool) *recorder {
	return &recorder{values: map[string]value{}, samples: map[string][]float64{}, tracing: tracing, epoch: time.Now()}
}

// set records a metric value.
func (r *recorder) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = value{value: v}
	r.mu.Unlock()
}

// setMissing records that a metric could not be measured, and why.
func (r *recorder) setMissing(name, why string) {
	r.mu.Lock()
	r.values[name] = value{missing: why}
	r.mu.Unlock()
}

// add appends samples to a named sample set.
func (r *recorder) add(name string, vs ...float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], vs...)
	r.mu.Unlock()
}

// get returns a copy of a named sample set.
func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// setQuantile records quantile q of a sample set as a metric; an empty
// set is a bug in the workload, reported as a missing value.
func (r *recorder) setQuantile(metric, samples string, q float64) {
	s := r.get(samples)
	if len(s) == 0 {
		r.setMissing(metric, "no "+samples+" samples in this run")
		return
	}
	r.set(metric, quantile(s, q))
}

// op counts one attempted operation and whether it failed.
func (r *recorder) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile of s by linear interpolation between
// closest ranks. s is sorted in place.
func quantile(s []float64, q float64) float64 {
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(s []float64) float64 { return quantile(s, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// span is one traced interval of the benchmark's own calls into the
// program: a whole operation (parent 0) or a public call inside it.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	id, parent uint64
	op         uint64 // shared by every span of one operation
}

// spanner opens spans for one operation. The zero spanner (tracing
// off) records nothing.
type spanner struct {
	r  *recorder
	op uint64
}

// beginOp starts an operation's root span; end it with the returned
// func. With tracing off both are no-ops.
func (r *recorder) beginOp(name string, on bool) (spanner, func()) {
	if !r.tracing || !on {
		return spanner{}, func() {}
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	sp := spanner{r: r, op: id}
	end := sp.child(name, 0, id)
	return sp, end
}

// call wraps one public call of the program in a child span of the op.
func (s spanner) call(name string) func() {
	if s.r == nil {
		return func() {}
	}
	s.r.mu.Lock()
	s.r.nextID++
	id := s.r.nextID
	s.r.mu.Unlock()
	return s.child(name, s.op, id)
}

func (s spanner) child(name string, parent, id uint64) func() {
	start := time.Since(s.r.epoch)
	return func() {
		end := time.Since(s.r.epoch)
		s.r.mu.Lock()
		s.r.spans = append(s.r.spans, span{name: name, start: start, end: end, id: id, parent: parent, op: s.op})
		s.r.mu.Unlock()
	}
}

// writeTrace writes the spans as Chrome trace JSON (loadable in
// Perfetto), one track per operation, and records trace.spans.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  uint64            `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.op,
			Args: map[string]uint64{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "selfTimeUs": selfTimes(spans)})
	if err != nil {
		return err
	}
	r.set("trace.spans", float64(len(spans)))
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the time
// its children cover.
func selfTimes(spans []span) map[string]float64 {
	childTime := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.parent != 0 && s.parent != s.id {
			childTime[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.name] += us(s.end - s.start - childTime[s.id])
	}
	return out
}

// ioCounters is a /proc/self/io snapshot; ok is false where the file is
// absent, so callers report the derived metrics as missing, not zero.
type ioCounters struct {
	ok                  bool
	rchar, syscr, syscw int64
}

func readIO() ioCounters {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return ioCounters{}
	}
	defer f.Close()
	c := ioCounters{ok: true}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "rchar":
			c.rchar = n
		case "syscr":
			c.syscr = n
		case "syscw":
			c.syscw = n
		}
	}
	return c
}

func (c ioCounters) sub(o ioCounters) ioCounters {
	return ioCounters{ok: c.ok && o.ok, rchar: c.rchar - o.rchar, syscr: c.syscr - o.syscr, syscw: c.syscw - o.syscw}
}

func (c ioCounters) add(o ioCounters) ioCounters {
	return ioCounters{ok: c.ok && o.ok, rchar: c.rchar + o.rchar, syscr: c.syscr + o.syscr, syscw: c.syscw + o.syscw}
}

const noProcIO = "/proc/self/io is not available on this host"

// setPerIO records num/den as a metric, or missing when the I/O
// counters are unavailable or nothing was delivered.
func (r *recorder) setPerIO(name string, c ioCounters, num, den float64) {
	switch {
	case !c.ok:
		r.setMissing(name, noProcIO)
	case den == 0:
		r.setMissing(name, "no messages delivered")
	default:
		r.set(name, num/den)
	}
}

// usage is a getrusage snapshot plus the Go runtime's counters.
type usage struct {
	user, sys time.Duration
	maxRSSKB  int64
	mallocs   uint64
	gcCycles  uint32
}

// sub returns the counters accrued from o to u; maxRSSKB, a high-water
// mark, stays u's.
func (u usage) sub(o usage) usage {
	return usage{user: u.user - o.user, sys: u.sys - o.sys, maxRSSKB: u.maxRSSKB, mallocs: u.mallocs - o.mallocs, gcCycles: u.gcCycles - o.gcCycles}
}

// add returns u with the counters of d added.
func (u usage) add(d usage) usage {
	return usage{user: u.user + d.user, sys: u.sys + d.sys, maxRSSKB: max(u.maxRSSKB, d.maxRSSKB), mallocs: u.mallocs + d.mallocs, gcCycles: u.gcCycles + d.gcCycles}
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.user = time.Duration(ru.Utime.Nano())
		u.sys = time.Duration(ru.Stime.Nano())
		u.maxRSSKB = ru.Maxrss
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	u.gcCycles = ms.NumGC
	return u
}

// setProcess records the process-level per-op metrics of a main loop.
func (r *recorder) setProcess(before, after usage, ops int64) {
	if ops == 0 {
		ops = 1
	}
	r.set("proc.cpu_user_s_per_op", (after.user-before.user).Seconds()/float64(ops))
	r.set("proc.cpu_sys_s_per_op", (after.sys-before.sys).Seconds()/float64(ops))
	r.set("go.gc_cycles_per_op", float64(after.gcCycles-before.gcCycles)/float64(ops))
}

// setPeakRSS records peak_rss_mb from getrusage's high-water mark.
func (r *recorder) setPeakRSS() {
	r.set("peak_rss_mb", float64(readUsage().maxRSSKB)/1024)
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint(work string) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(buf))
	}
	h["scratch_fs"] = fsType(work)
	return h
}

// fsType names the file system holding dir (tmpfs would make the I/O
// numbers meaningless).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
