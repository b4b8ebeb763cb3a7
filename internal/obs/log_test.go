package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestContextAttrs(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Error("RequestID on bare context should be empty")
	}
	ctx = ContextWithAttrs(ctx, slog.String(AttrKeyRequestID, "abc123"), slog.String("dataset", "d1"))
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q, want abc123", got)
	}
	// Nested calls accumulate.
	ctx2 := ContextWithAttrs(ctx, slog.Int("shard", 3))
	attrs := ContextAttrs(ctx2)
	if len(attrs) != 3 || attrs[2].Key != "shard" {
		t.Fatalf("nested attrs = %v, want request_id, dataset, shard", attrs)
	}
	// The parent context is untouched.
	if len(ContextAttrs(ctx)) != 2 {
		t.Error("child attrs leaked into parent context")
	}
	// Re-seeding a detached context with the request's attrs — the
	// async-job bridge — keeps the request id.
	detached := ContextWithAttrs(context.Background(), append(attrs, slog.String("job_id", "j1"))...)
	if RequestID(detached) != "abc123" || len(ContextAttrs(detached)) != 4 {
		t.Errorf("bridged attrs = %v", ContextAttrs(detached))
	}
}

// TestContextAttrsSiblingsIsolated extends one parent from many
// goroutines at once: each child must see the parent's attrs plus only
// its own, never a sibling's. Run under -race.
func TestContextAttrsSiblingsIsolated(t *testing.T) {
	// Built one attr at a time, as a request context is: an in-place
	// append would have grown the list to capacity 4, leaving the slot
	// every child writes shared between them.
	parent := context.Background()
	for _, k := range []string{AttrKeyRequestID, "dataset", "fingerprint"} {
		parent = ContextWithAttrs(parent, slog.String(k, "v"))
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := strconv.Itoa(i)
			for iter := 0; iter < 200; iter++ {
				child := ContextWithAttrs(parent, slog.String("shard", want))
				bridged := append(ContextAttrs(parent), slog.String("job", want))
				attrs := ContextAttrs(child)
				if len(attrs) != 4 || attrs[3].Value.String() != want || bridged[3].Value.String() != want {
					errs <- fmt.Sprintf("child %d saw %v / %v", i, attrs, bridged)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := ContextAttrs(parent); len(got) != 3 {
		t.Errorf("parent attrs = %v, want its own three only", got)
	}
}

func TestLoggerMergesContextAttrs(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, Config{Level: "debug", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithAttrs(context.Background(), slog.String(AttrKeyRequestID, "rid-1"))
	Logger(ctx, log).Info("hello", "extra", 1)
	out := buf.String()
	if !strings.Contains(out, "request_id=rid-1") {
		t.Errorf("log line missing request id: %q", out)
	}
	if !strings.Contains(out, "extra=1") {
		t.Errorf("log line missing call-site attr: %q", out)
	}
	// Nil base must not panic and must stay silent.
	Logger(ctx, nil).Info("dropped")
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR", "WARN": "WARN",
	} {
		lv, err := ParseLevel(in)
		if err != nil || lv.String() != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %s", in, lv, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage level")
	}
}

func TestConfigLayer(t *testing.T) {
	got := Config{Level: "debug"}.Layer(Config{Level: "info", Format: "json"})
	if got.Level != "debug" || got.Format != "json" {
		t.Errorf("Layer = %+v, want level=debug format=json", got)
	}
	if _, err := NewLogger(&strings.Builder{}, Config{Format: "xml"}); err == nil {
		t.Error("NewLogger accepted bad format")
	}
}

func TestBuildNeverEmpty(t *testing.T) {
	b := Build()
	if b.Version == "" || b.Revision == "" || b.GoVersion == "" {
		t.Errorf("Build() has empty fields: %+v", b)
	}
}
