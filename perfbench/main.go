// Command perfbench is the repository benchmark: three seeded workloads
// (cold-read, served-read, ingest) that drive the BORA library through
// its public functions, check every result against an oracle built from
// the source .bag files with rosbag.Scan, and print their metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload cold-read --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's own spans on, runs the per-layer probes
// on the workload's fixture and prints the per-layer metrics. See
// README.md for the metric glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch root; each run works in a directory under it, removed on exit
	size     sizes
	// dropOne makes the first query of the run skip one delivered
	// message before the oracle sees it. Only the benchmark's own test
	// sets it, to prove the correctness check is live.
	dropOne bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	// Why says why a metric has no value on this host (Value is nil).
	Why string `json:"why,omitempty"`
}

// errWrong marks an output that disagrees with the oracle.
var errWrong = errors.New("wrong result")

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-read, served-read or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated bags and the query mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured main loop")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs with spans and per-layer probes")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.size = fullSizes
	// Scratch data lives in the checkout, on its file system: tmpfs
	// would make the I/O numbers meaningless.
	cfg.work = ".bench_work"
	res, err := run(cfg)
	if res != nil {
		if host, herr := json.Marshal(map[string]any{"host": hostFingerprint(cfg.work)}); herr == nil {
			fmt.Println(string(host))
		}
		out, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", merr)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory under cfg.work
// and returns its result. A wrong result returns both a result with
// Correct false and an error wrapping errWrong.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want cold-read, served-read or ingest)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRecorder(cfg.trace)
	werr := w(cfg, dir, r)
	if werr != nil && !errors.Is(werr, errWrong) {
		return nil, werr
	}
	res := &result{Correct: werr == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if werr != nil {
		return res, werr // a wrong result: the run's metrics mean nothing
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v", cfg.seconds)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
		if err := r.writeTrace(filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		out := metric{Unit: m.unit}
		if v.missing != "" {
			out.Why = v.missing
		} else {
			val := v.value
			out.Value = &val
		}
		res.Metrics[m.name] = out
	}
	return res, nil
}

// workloads maps --workload to the function that runs it. Each one sets up its
// fixture, runs its main loop for cfg.seconds, and records every metric
// of the run's metric set into r.
var workloads = map[string]func(cfg config, dir string, r *recorder) error{
	"cold-read":   runColdRead,
	"served-read": runServedRead,
	"ingest":      runIngest,
}

// deadline returns when a main loop that starts now must stop.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
