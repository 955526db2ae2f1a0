// Command benchrecord turns `go test -bench` output into
// BENCH_ENGINE.json rows. It exists to close the ROADMAP's standing
// loop on benchmark provenance: the CI bench-multicore job runs the
// engine shard sweep on genuinely parallel hardware and uploads its
// bench.out as an artifact, and this tool parses that artifact (or
// any local bench run) and merges the measured rows into the
// checked-in baseline — replacing rows with matching names, appending
// new ones, and preserving hand-written annotations (note, benchtime)
// on rows it updates.
//
// Usage:
//
//	go test -bench 'EngineThroughput' -benchtime=2000x -benchmem -run xxx . | tee bench.out
//	go run ./cmd/benchrecord -bench bench.out -json BENCH_ENGINE.json -date 2026-07-27 -w
//
// Without -w the merged document is printed to stdout for review.
// Benchmark names are recorded without the trailing -GOMAXPROCS
// suffix, matching the baseline's convention; the suffix is stamped
// into the row's procs field instead (1 when absent, as go test omits
// it at GOMAXPROCS=1), and the host from the output's cpu:, goos: and
// goarch: header lines into its cpu, goos and goarch fields. Repeated
// runs of one name (-count N) fold into one row: ns_per_op is their
// median, ns_per_op_min/ns_per_op_max their spread and runs their
// number. Runs on different CPU models never mix: folding them, or
// merging a measurement into a row recorded on another CPU model, is
// an error. Standard metrics map to
// the baseline's keys (ns/op → ns_per_op, B/op → bytes_per_op,
// allocs/op → allocs_per_op) and the engine's custom metrics keep
// their names with dashes flattened (qps, p99-ns → p99_ns).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Row is one benchmark result in the BENCH_ENGINE.json schema. The
// zero-able alloc columns are pointers so that a measured 0 — the
// whole point of the steady-state rows — still serializes.
type Row struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations,omitempty"`
	NsPerOp     float64  `json:"ns_per_op,omitempty"`
	NsPerOpMin  float64  `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64  `json:"ns_per_op_max,omitempty"`
	Runs        int      `json:"runs,omitempty"`
	Procs       int      `json:"procs,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	Goos        string   `json:"goos,omitempty"`
	Goarch      string   `json:"goarch,omitempty"`
	Qps         *float64 `json:"qps,omitempty"`
	P99Ns       *float64 `json:"p99_ns,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	Benchtime   string   `json:"benchtime,omitempty"`
	Note        string   `json:"note,omitempty"`
}

// File is the BENCH_ENGINE.json document.
type File struct {
	Name       string         `json:"name"`
	Date       string         `json:"date,omitempty"`
	Host       map[string]any `json:"host,omitempty"`
	Command    string         `json:"command,omitempty"`
	Workload   string         `json:"workload,omitempty"`
	Acceptance string         `json:"acceptance,omitempty"`
	Results    []Row          `json:"results"`
}

// benchLine matches one `go test -bench` result line: the name (with
// its -P procs suffix), the iteration count, and the metric tail.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*\S)\s*$`)

// parseBench extracts rows from go-test benchmark output, stamping
// each with the most recent cpu:, goos: and goarch: header values
// (go test prints them once per package). Other non-result lines
// (pkg headers, PASS, progress output) are skipped.
func parseBench(r io.Reader) ([]Row, error) {
	var rows []Row
	var host Row
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "cpu":
				host.CPU = strings.TrimSpace(val)
			case "goos":
				host.Goos = strings.TrimSpace(val)
			case "goarch":
				host.Goarch = strings.TrimSpace(val)
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchrecord: bad iteration count in %q: %v", sc.Text(), err)
		}
		row := Row{Name: m[1], Iterations: iters, Procs: 1,
			CPU: host.CPU, Goos: host.Goos, Goarch: host.Goarch}
		if m[2] != "" {
			if row.Procs, err = strconv.Atoi(m[2]); err != nil {
				return nil, fmt.Errorf("benchrecord: bad procs suffix in %q: %v", sc.Text(), err)
			}
		}
		fields := strings.Fields(m[4])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchrecord: odd metric tail in %q", sc.Text())
		}
		for f := 0; f < len(fields); f += 2 {
			val, err := strconv.ParseFloat(fields[f], 64)
			if err != nil {
				return nil, fmt.Errorf("benchrecord: bad metric value %q in %q: %v", fields[f], sc.Text(), err)
			}
			switch unit := fields[f+1]; unit {
			case "ns/op":
				row.NsPerOp = val
			case "B/op":
				row.BytesPerOp = ptr(val)
			case "allocs/op":
				row.AllocsPerOp = ptr(val)
			case "qps":
				row.Qps = ptr(val)
			case "p99-ns", "p99_ns":
				row.P99Ns = ptr(val)
			case "MB/s":
				// throughput column of -benchtime byte benchmarks; the
				// baseline schema has no slot for it — skip.
			default:
				// Unknown custom metric: ignore rather than fail, so the
				// tool survives future ReportMetric additions.
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("benchrecord: no benchmark result lines found")
	}
	return fold(rows)
}

func ptr(f float64) *float64 { return &f }

// fold merges the repeated runs of each benchmark name (go test
// -count N) into one row, in first-appearance order. The row is the
// run of lower-median ns/op (its iterations, qps and p99 stand), with
// ns_per_op replaced by the median over runs, the ns/op extremes and
// run count recorded beside it, and bytes/allocs per op taken as the
// maximum over runs, so a recorded 0 means no run allocated. Runs of
// one name at different GOMAXPROCS or on different CPU models are an
// error: the baseline keys rows by name alone.
func fold(rows []Row) ([]Row, error) {
	var names []string
	runs := make(map[string][]Row)
	for _, r := range rows {
		if prev, ok := runs[r.Name]; !ok {
			names = append(names, r.Name)
		} else if prev[0].Procs != r.Procs {
			return nil, fmt.Errorf("benchrecord: %s measured at GOMAXPROCS %d and %d; record one -cpu value at a time",
				r.Name, prev[0].Procs, r.Procs)
		} else if prev[0].CPU != r.CPU {
			return nil, fmt.Errorf("benchrecord: %s measured on CPU %q and %q; fold runs from one host only",
				r.Name, prev[0].CPU, r.CPU)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Row, 0, len(names))
	for _, name := range names {
		rs := runs[name]
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		mid := len(rs) / 2
		row := rs[(len(rs)-1)/2]
		if len(rs)%2 == 0 {
			row.NsPerOp = (rs[mid-1].NsPerOp + rs[mid].NsPerOp) / 2
		}
		row.Runs = len(rs)
		if len(rs) > 1 {
			row.NsPerOpMin, row.NsPerOpMax = rs[0].NsPerOp, rs[len(rs)-1].NsPerOp
		}
		for _, r := range rs {
			row.BytesPerOp = maxPtr(row.BytesPerOp, r.BytesPerOp)
			row.AllocsPerOp = maxPtr(row.AllocsPerOp, r.AllocsPerOp)
		}
		out = append(out, row)
	}
	return out, nil
}

// maxPtr returns the larger of two optional metrics.
func maxPtr(a, b *float64) *float64 {
	if a == nil || (b != nil && *b > *a) {
		return b
	}
	return a
}

// merge folds the measured rows into doc: rows with matching names
// are updated in place (measured metrics overwrite, hand annotations
// survive, and a metric absent from the new measurement — e.g. no
// -benchmem — keeps its recorded value), new names append in
// measurement order. Returns the counts for the summary line. A row
// stamped with a CPU model is only updated by a measurement on the
// same model (one without a cpu: header cannot show that); otherwise
// merge fails and leaves doc untouched, since the two numbers are not
// comparable. Rows recorded before host stamping take the new stamp.
func merge(doc *File, rows []Row) (updated, added int, err error) {
	index := make(map[string]int, len(doc.Results))
	for i, r := range doc.Results {
		index[r.Name] = i
	}
	for _, row := range rows {
		if i, ok := index[row.Name]; ok {
			if old := doc.Results[i].CPU; old != "" && old != row.CPU {
				return 0, 0, fmt.Errorf("benchrecord: %s is recorded on CPU %q, refusing to merge a run on %q",
					row.Name, old, row.CPU)
			}
		}
	}
	for _, row := range rows {
		i, ok := index[row.Name]
		if !ok {
			doc.Results = append(doc.Results, row)
			index[row.Name] = len(doc.Results) - 1
			added++
			continue
		}
		dst := &doc.Results[i]
		dst.Iterations = row.Iterations
		dst.NsPerOp = row.NsPerOp
		dst.NsPerOpMin, dst.NsPerOpMax = row.NsPerOpMin, row.NsPerOpMax
		dst.Runs = row.Runs
		dst.Procs = row.Procs
		dst.CPU, dst.Goos, dst.Goarch = row.CPU, row.Goos, row.Goarch
		if row.Qps != nil {
			dst.Qps = row.Qps
		}
		if row.P99Ns != nil {
			dst.P99Ns = row.P99Ns
		}
		if row.BytesPerOp != nil {
			dst.BytesPerOp = row.BytesPerOp
		}
		if row.AllocsPerOp != nil {
			dst.AllocsPerOp = row.AllocsPerOp
		}
		updated++
	}
	return updated, added, nil
}

// load reads the baseline document, or starts a fresh one when the
// file does not exist yet.
func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Name: "engine-baseline"}, nil
	}
	if err != nil {
		return nil, err
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("benchrecord: %s: %v", path, err)
	}
	return &doc, nil
}

func run(benchPath, jsonPath, date, filter string, write bool, stdout, stderr io.Writer) error {
	var in io.Reader
	if benchPath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rows, err := parseBench(in)
	if err != nil {
		return err
	}
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return fmt.Errorf("benchrecord: bad -filter: %v", err)
		}
		kept := rows[:0]
		for _, r := range rows {
			if re.MatchString(r.Name) {
				kept = append(kept, r)
			}
		}
		rows = kept
		if len(rows) == 0 {
			return fmt.Errorf("benchrecord: -filter %q matched no rows", filter)
		}
	}
	doc, err := load(jsonPath)
	if err != nil {
		return err
	}
	updated, added, err := merge(doc, rows)
	if err != nil {
		return err
	}
	if date != "" {
		doc.Date = date
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if write {
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
	} else {
		if _, err := stdout.Write(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "benchrecord: %d rows updated, %d added (%d parsed from %s)\n",
		updated, added, len(rows), benchPath)
	return nil
}

func main() {
	var (
		benchPath = flag.String("bench", "bench.out", "go test -bench output to parse (\"-\" for stdin)")
		jsonPath  = flag.String("json", "BENCH_ENGINE.json", "baseline document to merge into")
		date      = flag.String("date", "", "stamp the document's date field (YYYY-MM-DD; empty keeps the recorded date)")
		filter    = flag.String("filter", "", "only merge benchmark names matching this regexp")
		write     = flag.Bool("w", false, "write the merged document back to -json instead of stdout")
	)
	flag.Parse()
	if err := run(*benchPath, *jsonPath, *date, *filter, *write, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}
