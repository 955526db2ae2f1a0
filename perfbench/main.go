// Command perfbench is the repository benchmark. It starts the real
// serving stack in-process (server.Listen on 127.0.0.1 over stream →
// engine → engine.Market), drives it through internal/client with an
// open-loop Poisson schedule, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sv-rh --seed 1 --seconds 18 --trace 0
//
// See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// maxRunTime bounds a whole invocation; a run that has not finished by
// then is failed rather than left hanging.
const maxRunTime = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 18, "measured seconds, split evenly over the low-rate, high-rate and saturation slices")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for journal scratch and trace dumps")
	)
	flag.Parse()
	sp := specByName(*name)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	time.AfterFunc(maxRunTime, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", maxRunTime)
		os.Exit(1)
	})

	stamp := hostStamp(*seed)
	fmt.Printf("# %s workload=%s seconds=%d trace=%d\n", stamp, sp.name, *seconds, *trace)
	phase := time.Duration(*seconds) * time.Second / 3
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = runEndToEnd(sp, *seed, phase, *workdir)
	} else {
		res, err = runTraced(sp, *seed, phase, *workdir, stamp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported number. NA marks a per-layer metric whose
// layer does no work on this workload; its value is 0.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	na    bool
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string // print order
	info     []string // figures printed but not reported in the JSON
	failures []string // gate violations
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setNA records a metric whose layer does no work on the workload.
func (r *result) setNA(name, unit string) {
	r.set(name, 0, unit)
	m := r.Metrics[name]
	m.na = true
	r.Metrics[name] = m
}

// note records a figure that is printed for reading but kept out of
// the JSON metrics.
func (r *result) note(name string, v float64, unit string) {
	r.info = append(r.info, fmt.Sprintf("%-36s %14.6g %s (not gated)", name, v, unit))
}

func (r *result) print() {
	for _, f := range r.failures {
		fmt.Printf("GATE FAILED: %s\n", f)
	}
	for _, line := range r.info {
		fmt.Printf("# %s\n", line)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		if m.na {
			fmt.Printf("%-36s %14s %s\n", name, "n/a", m.Unit)
		} else {
			fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers and strings always encodes
	}
	fmt.Println(string(b))
}

// hostStamp identifies where and how the numbers were made: numbers
// from hosts or builds with different stamps are not comparable.
func hostStamp(seed int64) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, commit)
}
