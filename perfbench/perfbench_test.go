package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/datagen"
)

// tinySizes shrink every workload so a full run takes well under a
// second of measuring.
var tinySizes = sizes{
	tall:      datagen.Spec{Attrs: 6, Rows: 2000},
	wide:      datagen.Spec{Attrs: 12, Rows: 200, Correlation: 0.3},
	g:         datagen.Spec{Attrs: 6, Rows: 200, Correlation: 0.3},
	hot:       datagen.Spec{Attrs: 8, Rows: 150, Correlation: 0.3},
	tallProbe: datagen.Spec{Attrs: 6, Rows: 100},
	wideProbe: datagen.Spec{Attrs: 12, Rows: 60, Correlation: 0.3},
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace, sizes: tinySizes, dir: t.TempDir()}
}

// lastLine decodes the result line, the last line of a run's output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(map[bool]string{false: w, true: w + "-traced"}[trace], func(t *testing.T) {
				cfg := tinyConfig(t, w, trace)
				rec, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				res := lastLine(t, func() string { emit(&out, cfg, rec); return out.String() }())
				if !res.Correct || res.Failed != 0 || rec.errorRatio() != 0 {
					t.Fatalf("correct=%t failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, rec.notes)
				}
				defs, _ := reportedDefs(trace)
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !trace && w == "serve" {
					for _, d := range servedDetail {
						if rec.n[d.name] == 0 {
							t.Errorf("served detail %s has no samples", d.name)
						}
					}
				}
			})
		}
	}
}

// A wrong output or a failed request counts as a failure and leaves no
// latency sample behind.
func TestFailuresAreCountedNotTimed(t *testing.T) {
	ctx := context.Background()
	t.Run("wrong cover", func(t *testing.T) {
		e, err := setupLibrary(ctx, subSeed(tinySizes.tall, 7, 1), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e.ref = e.ref[1:]
		rec := newRecorder()
		for _, op := range libOps {
			runLibOp(ctx, rec, e, op)
		}
		if rec.attempted != len(libOps) || rec.failed != len(libOps) || len(rec.samples) != 0 {
			t.Fatalf("attempted=%d failed=%d samples=%v", rec.attempted, rec.failed, rec.samples)
		}
		cfg := tinyConfig(t, "tall", false)
		var out bytes.Buffer
		emit(&out, cfg, rec)
		if res := lastLine(t, out.String()); res.Correct || res.Failed != len(libOps) {
			t.Fatalf("result %+v reports the failures as correct", res)
		}
	})
	t.Run("failed requests", func(t *testing.T) {
		s, err := startServed(ctx, t.TempDir(), subSeed(tinySizes.g, 7, 3), subSeed(tinySizes.hot, 7, 6))
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.stop(ctx); err != nil {
				t.Error(err)
			}
		}()
		rec := newRecorder()
		c := client.New(s.url)
		missing := *s.gs[0]
		missing.id = "ds-missing"
		s.appendRow(ctx, rec, c, &missing)
		s.coldDiscover(ctx, rec, c, &missing, coldKinds[0])
		s.hotCover = s.hotCover[1:]
		s.hotDiscover(ctx, rec, c)
		if rec.attempted != 3 || rec.failed != 3 || len(rec.samples) != 0 {
			t.Fatalf("attempted=%d failed=%d samples=%v notes=%v", rec.attempted, rec.failed, rec.samples, rec.notes)
		}
	})
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "tall", "--trace", "2"},
		{"--workload", "tall", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := mainCode(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json declares the same workloads and metrics the program
// reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit) {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].name || m.Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
