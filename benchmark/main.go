// Command benchmark is the repository's benchmark: it measures how fast
// whole-program aliasing answers arrive through the public cla API on
// three workloads, checks every answer it times, and prints one JSON
// result line. See README.md for the workloads, the metrics and how to
// read them.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run spawns its workload in child processes of this same binary
// (selected by the CLA_BENCHMARK_CHILD environment variable), so a child
// that runs out of memory or panics is reported as failed operations
// instead of taking the result line with it, and so the parent can read
// the measuring child's peak RSS from its rusage.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// childEnv selects the child role ("setup", "measure" or "trace") of a
// spawned benchmark process.
const childEnv = "CLA_BENCHMARK_CHILD"

// buildDir is where, relative to the working directory, the benchmark
// keeps everything it writes: per-run scratch trees and Chrome traces.
const buildDir = ".bench_build"

// runBudget bounds one whole run, children included, so a run always
// prints its result line within three minutes.
const runBudget = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. What the "op" and "reuse" operations are depends on the
// workload; see workloads.go.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"reuse_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported by every workload;
// see layers.go for what each one times.
var perLayer = []metricDef{
	{"compile.busy_s", "s"}, {"compile.wall_s", "s"}, {"compile.parallel_eff", "ratio"},
	{"compile.unit_p50_ms", "ms"}, {"compile.unit_max_ms", "ms"}, {"compile.lines_per_s", "lines/s"},
	{"link.wall_s", "s"}, {"link.assigns", "count"},
	{"solve.wall_s", "s"}, {"solve.relations", "count"}, {"solve.passes", "count"},
	{"solve.unifications", "count"}, {"solve.cache_hits", "count"},
	{"checks.wall_s", "s"},
	{"open.hash_s", "s"}, {"open.compile_s", "s"}, {"open.link_s", "s"}, {"open.solve_s", "s"},
	{"reopen.compile_s", "s"}, {"reopen.link_s", "s"}, {"reopen.solve_s", "s"}, {"reopen.store_hits", "count"},
	{"edit.hash_ms", "ms"}, {"edit.compile_ms", "ms"}, {"edit.link_ms", "ms"}, {"edit.solve_ms", "ms"},
	{"edit.other_ms", "ms"}, {"edit.recompiled", "count"}, {"edit.merges_reused_ratio", "ratio"},
	{"reuse.compile_ms", "ms"}, {"reuse.link_ms", "ms"}, {"reuse.solve_reused_ratio", "ratio"},
	{"poll.hash_ms", "ms"},
	{"snap.open_ms", "ms"}, {"snap.verify_ms", "ms"}, {"snap.bytes", "bytes"}, {"snap.first_query_us", "us"},
	{"eval.pointsto_p50_us", "us"}, {"eval.pointsto_p99_us", "us"},
	{"eval.alias_p50_us", "us"}, {"eval.alias_p99_us", "us"},
	{"eval.modref_p50_us", "us"}, {"eval.modref_p99_us", "us"},
	{"eval.lint_p50_us", "us"}, {"eval.lint_p99_us", "us"},
	{"eval.pointsto_objects", "count"}, {"gc.pause_ms", "ms"}, {"heap.alloc_bytes_per_query", "bytes"},
	{"depend.analyze_ms", "ms"}, {"depend.render_ms", "ms"}, {"depend.blocks_loaded", "count"},
	{"depend.dependents", "count"}, {"heap.alloc_mb_per_query", "MB"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line settings shared by the parent and its
// children.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the child's scratch directory, set by the parent.
	work string
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&o.work, "work", "", "child scratch directory")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func (o options) childArgs(work string) []string {
	return []string{
		"--workload", o.workload,
		"--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds),
		"--work", work,
	}
}

func main() {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// childMain runs one role of a workload and prints its report as JSON.
func childMain(role string, args []string, stdout io.Writer) int {
	opt, err := parseFlags(args)
	if err != nil || opt.work == "" {
		fmt.Fprintln(os.Stderr, "benchmark child: bad arguments:", args, err)
		return 2
	}
	w, _ := workloadByName(opt.workload)
	e := &runEnv{opt: opt, w: w, ctx: context.Background()}
	var rep *report
	switch role {
	case "setup":
		rep = w.setup(e)
	case "measure":
		rep = w.measure(e)
	case "trace":
		rep = traceRun(e)
	default:
		fmt.Fprintln(os.Stderr, "benchmark child: unknown role", role)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parentMain runs one workload in child processes, prints the host and
// input description, one line per metric with its sample count, and the
// JSON result as the last line.
func parentMain(args []string, stdout io.Writer) int {
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	w, _ := workloadByName(opt.workload)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-"+opt.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(work)
	work, err = filepath.Abs(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	roles := []string{"measure"}
	defs := endToEnd
	if opt.trace {
		roles, defs = []string{"trace"}, perLayer
	} else if w.setup != nil {
		roles = []string{"setup", "measure"}
	}
	merged := newReport()
	var peakRSS float64
	for _, role := range roles {
		rep, rss, err := spawn(ctx, role, opt, work)
		if err != nil {
			// A crashed or killed child fails everything it would have
			// done; count at least one operation so the failure shows.
			merged.check(false, "%s child: %v", role, err)
			break
		}
		merged.Setup = append(merged.Setup, rep.Setup...)
		for k, v := range rep.Metrics {
			merged.set(k, v, rep.Samples[k])
		}
		for k, v := range rep.Info {
			merged.Info[k] = v
		}
		merged.Attempted += rep.Attempted
		merged.Failed += rep.Failed
		merged.Errors = append(merged.Errors, rep.Errors...)
		if rep.TracePath != "" {
			merged.TracePath = rep.TracePath
		}
		if role == "measure" {
			peakRSS = rss
		}
	}
	if !opt.trace {
		merged.set("setup_s", median(merged.Setup), len(merged.Setup))
		merged.set("peak_rss_mb", peakRSS, 1)
	}

	writeHeader(stdout, opt, w, merged)
	res := result{Attempted: merged.Attempted, Failed: merged.Failed, Metrics: map[string]value{}}
	missing := 0
	for _, d := range defs {
		v, ok := merged.Metrics[d.name]
		if !ok {
			missing++
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %16.6g %-8s n=%d\n", d.name, v, d.unit, merged.Samples[d.name])
	}
	if missing > 0 {
		merged.check(false, "%d metrics missing from the children's reports", missing)
		res.Attempted, res.Failed = merged.Attempted, merged.Failed
	}
	for _, e := range merged.Errors {
		fmt.Fprintln(stdout, "# error:", e)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeHeader prints the run's configuration and host, so results from
// different hosts or inputs are never silently compared.
func writeHeader(wr io.Writer, opt options, w *workload, rep *report) {
	fmt.Fprintf(wr, "# workload=%s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(wr, "# host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(wr, "# config profile=%s scale=%g jobs=%d clients=%d\n", profileName, w.scale, jobs, w.clients)
	if len(rep.Info) > 0 {
		keys := make([]string, 0, len(rep.Info))
		for k := range rep.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, rep.Info[k])
		}
		fmt.Fprintf(wr, "# input%s\n", b.String())
	}
	if rep.TracePath != "" {
		fmt.Fprintf(wr, "# chrome trace written to %s\n", rep.TracePath)
	}
}

// spawn runs one child role to completion and returns its report and
// peak resident set size in MB.
func spawn(ctx context.Context, role string, opt options, work string) (*report, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, opt.childArgs(work)...)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rss float64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return nil, rss, fmt.Errorf("%w (run budget %s exhausted)", runErr, runBudget)
		}
		return nil, rss, runErr
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	rep := newReport()
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, rss, fmt.Errorf("unreadable report: %w", err)
	}
	return rep, rss, nil
}
