package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports (--trace 0). Every
// workload reports every one of them, so each is defined for a library
// call and for a served request alike: on tall and wide the discovery
// metrics time library calls, on serve they time cold discoveries over
// HTTP as the client sees them.
var endToEnd = []metricDef{
	{"depminer_s", "s"},
	{"depminer2_s", "s"},
	{"tane_s", "s"},
	{"depminer_ooc_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// servedDetail are end-to-end figures of the served path that only the
// serve workload can produce. They go into the printed record of an
// untraced run, not into its result line, which must carry the same
// metric set for every workload.
var servedDetail = []metricDef{
	{"append_p50_ms", "ms"},
	{"append_p99_ms", "ms"},
	{"discover_p50_ms", "ms"},
	{"discover_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
}

// perLayer are the metrics a traced run reports (--trace 1). Times are
// medians over the run; counts repeat for a given seed unless noted in
// README.md.
var perLayer = []metricDef{
	{"partition.build_ms", "ms"},
	{"partition.maximal_classes_ms", "ms"},
	{"partition.maximal_classes", "count"},
	{"partition.stream_build_ms", "ms"},
	{"agree.plan_ms", "ms"},
	{"agree.couples", "count"},
	{"agree.couples_ms", "ms"},
	{"agree.identifiers_ms", "ms"},
	{"agree.shard_sweep_ms", "ms"},
	{"agree.sets", "count"},
	{"agree.sets_per_mcouple", "1/Mcouple"},
	{"agree.couples_spill_ms", "ms"},
	{"extsort.runs_spilled", "count"},
	{"extsort.spilled_bytes", "B"},
	{"extsort.read_blocks", "count"},
	{"maxsets.compute_ms", "ms"},
	{"maxsets.count", "count"},
	{"hypergraph.simplify_ms", "ms"},
	{"hypergraph.transversals_ms", "ms"},
	{"hypergraph.transversals", "count"},
	{"core.glue_ms", "ms"},
	{"core.fds", "count"},
	{"armstrong.build_ms", "ms"},
	{"armstrong.synthetic", "bool"},
	{"tane.lattice_nodes", "count"},
	{"pstore.hits", "count"},
	{"pstore.misses", "count"},
	{"pstore.peak_bytes", "B"},
	{"incremental.insert_ms", "ms"},
	{"durable.syncs_per_append", "ratio"},
	{"durable.wal_bytes_per_row", "B"},
	{"durable.snapshots", "count"},
	{"server.pipeline_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.phase_ms.partition", "ms"},
	{"server.phase_ms.agree_sets", "ms"},
	{"server.phase_ms.max_sets", "ms"},
	{"server.phase_ms.lhs", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.async", "count"},
	{"server.rejected", "count"},
	{"server.peak_running", "count"},
	{"client.retries", "count"},
	{"trace.depminer_s", "s"},
	{"trace.overhead_ms", "ms"},
}

// maxFailureNotes bounds the failure descriptions kept for the record.
const maxFailureNotes = 20

// recorder accumulates one run's outcome: operation counts, failure
// notes, sample populations and the reported values.
type recorder struct {
	attempted, failed int
	notes             []string
	// samples holds raw populations by name, in the unit they were added.
	samples map[string][]float64
	// values are the reported figures, n their sample counts.
	values map[string]float64
	n      map[string]int
	// info describes the run's inputs for the record.
	info map[string]any
}

func newRecorder() *recorder {
	return &recorder{
		samples: make(map[string][]float64),
		values:  make(map[string]float64),
		n:       make(map[string]int),
		info:    make(map[string]any),
	}
}

// op accounts one attempted operation that took d. A non-nil err — a
// failed call or a wrong output — counts the operation as failed and
// keeps its time out of every sample.
func (r *recorder) op(name string, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	r.add(name, d.Seconds())
}

// check accounts a correctness gate that is not an operation of its
// own: a failed gate is one more attempted and failed operation.
func (r *recorder) check(err error) {
	if err != nil {
		r.attempted++
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, err.Error())
	}
}

// merge folds o's operation counts, failure notes and samples into r.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes[:min(len(o.notes), maxFailureNotes-len(r.notes))]...)
	for name, s := range o.samples {
		r.samples[name] = append(r.samples[name], s...)
	}
}

// add appends one sample to a population.
func (r *recorder) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// set reports a value computed from n samples.
func (r *recorder) set(name string, v float64, n int) {
	r.values[name] = v
	r.n[name] = n
}

// setQuantile reports quantile q of population pop, scaled by scale.
// An empty population reports nothing, so the run fails its metric-set
// check instead of reporting an invented number.
func (r *recorder) setQuantile(name, pop string, q, scale float64) {
	s := r.samples[pop]
	if len(s) == 0 {
		return
	}
	r.set(name, quantile(s, q)*scale, len(s))
}

// quantile returns the nearest-rank q-quantile of s (0 < q ≤ 1).
func quantile(s []float64, q float64) float64 {
	v := slices.Clone(s)
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}

// errorRatio is failed ÷ attempted.
func (r *recorder) errorRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// resetPeakRSS restarts the kernel's peak-resident-set counter so that
// VmHWM covers only what follows. It reports whether the reset worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
