// Command perfbench is the repository's benchmark. One invocation runs
// one workload at one seed for a fixed time, checks every output it
// times, and prints a human-readable report, a JSON record with the
// testbed, and — as the last line — the JSON result:
//
//	perfbench --workload tall|wide|serve --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) times each layer's public functions from outside and
// reads the server's counters, and reports the per-layer metrics.
// README.md maps each layer metric to the end-to-end metric it moves.
// run.sh builds and starts it from a checkout of the repository.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/datagen"
)

// sizes are the generated relations of every workload; seeds are
// filled in from --seed.
type sizes struct {
	tall, wide datagen.Spec
	// g is the initial shape of each growing served dataset, hot the
	// static served dataset every cycle reads from the cache.
	g, hot datagen.Spec
	// tallProbe and wideProbe shape the served datasets a traced tall
	// or wide run uses to report the server's layers at its shape.
	tallProbe, wideProbe datagen.Spec
}

// fullSizes are the benchmark's inputs, sized for a 2-vCPU machine.
var fullSizes = sizes{
	tall:      datagen.Spec{Attrs: 10, Rows: 100_000},
	wide:      datagen.Spec{Attrs: 50, Rows: 3000, Correlation: 0.3},
	g:         datagen.Spec{Attrs: 15, Rows: 3000, Correlation: 0.3},
	hot:       datagen.Spec{Attrs: 25, Rows: 2000, Correlation: 0.3},
	tallProbe: datagen.Spec{Attrs: 10, Rows: 2000},
	wideProbe: datagen.Spec{Attrs: 50, Rows: 300, Correlation: 0.3},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sizes    sizes
	// dir is the run's scratch space; the caller removes it.
	dir string
}

var workloads = []string{"tall", "wide", "serve"}

// run executes one workload. The error is for a run that could not be
// set up at all; failed operations and checks are counted in the
// recorder instead.
func run(ctx context.Context, cfg config) (*recorder, error) {
	rec := newRecorder()
	rec.info["workload"] = cfg.workload
	switch cfg.workload {
	case "tall":
		return rec, runLibrary(ctx, cfg, rec, subSeed(cfg.sizes.tall, cfg.seed, 1), subSeed(cfg.sizes.tallProbe, cfg.seed, 4))
	case "wide":
		return rec, runLibrary(ctx, cfg, rec, subSeed(cfg.sizes.wide, cfg.seed, 2), subSeed(cfg.sizes.wideProbe, cfg.seed, 5))
	case "serve":
		return rec, runServe(ctx, cfg, rec)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", cfg.workload, strings.Join(workloads, ", "))
}

// subSeed gives each generated relation of a run its own seed, so the
// datasets of one run never share content (or a fingerprint).
func subSeed(spec datagen.Spec, seed, k uint64) datagen.Spec {
	spec.Seed = seed*16 + k
	return spec
}

// setupRepeated sets a workload up setupReps times, records the median
// duration as setup_s, tears down all but the last and returns it.
func setupRepeated[T any](rec *recorder, dir string, setup func(dir string) (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := range setupReps {
		if i > 0 {
			teardown(last)
		}
		sub := fmt.Sprintf("%s/setup-%d", dir, i)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return last, err
		}
		t0 := time.Now()
		v, err := setup(sub)
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	rec.set("setup_s", quantile(times, 0.5), len(times))
	return last, nil
}

// testbed describes where a record was measured.
type testbed struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentTestbed() testbed {
	tb := testbed{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				tb.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for line := range strings.Lines(string(data)) {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				tb.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return tb
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordMetric is one metric of the record, with its sample count.
type recordMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type runRecord struct {
	Workload string                  `json:"workload"`
	Seed     uint64                  `json:"seed"`
	Seconds  float64                 `json:"seconds"`
	Trace    bool                    `json:"trace"`
	Testbed  testbed                 `json:"testbed"`
	Inputs   map[string]any          `json:"inputs"`
	Metrics  map[string]recordMetric `json:"metrics"`
	Failures []string                `json:"failures,omitempty"`
}

// reportedDefs lists what a run reports: the result-line metrics of its
// mode, then the record-only ones.
func reportedDefs(trace bool) (result, extra []metricDef) {
	if trace {
		return perLayer, []metricDef{
			{"stats.partition_ms", "ms"}, {"stats.agree_sets_ms", "ms"}, {"stats.max_sets_ms", "ms"},
			{"stats.lhs_ms", "ms"}, {"stats.armstrong_ms", "ms"}, {"error_ratio", "ratio"},
		}
	}
	return endToEnd, append(slices.Clone(servedDetail), metricDef{"error_ratio", "ratio"})
}

// emit prints the report, the record and the result line, and returns
// the result. A result-line metric the run did not produce, or produced
// as a non-finite number, makes the result incorrect.
func emit(w io.Writer, cfg config, rec *recorder) result {
	rec.set("error_ratio", rec.errorRatio(), rec.attempted)
	defs, extra := reportedDefs(cfg.trace)
	res := result{Attempted: max(rec.attempted, 1), Failed: rec.failed, Metrics: make(map[string]valueUnit)}
	rr := runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Testbed: currentTestbed(), Inputs: rec.info, Metrics: make(map[string]recordMetric),
	}
	missing := 0
	for i, d := range append(slices.Clone(defs), extra...) {
		v, ok := rec.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if i < len(defs) {
				missing++
				fmt.Fprintf(w, "%-30s missing\n", d.name)
			}
			continue
		}
		fmt.Fprintf(w, "%-30s %14.6g %-10s n=%d\n", d.name, v, d.unit, rec.n[d.name])
		rr.Metrics[d.name] = recordMetric{Value: v, Unit: d.unit, Samples: rec.n[d.name]}
		if i < len(defs) {
			res.Metrics[d.name] = valueUnit{Value: v, Unit: d.unit}
		}
	}
	rr.Failures = rec.notes
	for _, n := range rec.notes {
		fmt.Fprintln(w, "FAILED:", n)
	}
	res.Correct = rec.failed == 0 && missing == 0
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "record ")
	_ = enc.Encode(rr)
	_ = enc.Encode(res)
	return res
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sizes:    fullSizes,
		dir:      dir,
	}
	rec, err := run(ctx, cfg)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res := emit(stdout, cfg, rec); !res.Correct {
		return 1
	}
	return 0
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output mismatch")
