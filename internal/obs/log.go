// Package obs is the observability subsystem of the repository: the
// structured-logging, metrics, tracing, and profiling plumbing shared by
// depminerd, the shard fleet, and the CLIs (DESIGN.md §16).
//
// Four pillars:
//
//   - attributes: request-scoped log/slog attributes — request id,
//     dataset fingerprint, shard index — carried through
//     context.Context and attached to every log line a request
//     produces;
//   - logging: log/slog configuration layered from environment and
//     flags (Config), with a guaranteed-quiet default (Nop) so tests
//     and library use never print;
//   - metrics: a dependency-free Prometheus text-exposition registry
//     (Registry) with atomic counters, gauges, and histograms on the
//     hot paths and scrape-time samplers bridging existing stats
//     structs;
//   - tracing: lightweight spans (StartSpan) that log structured
//     duration events instead of shipping to a collector, so per-phase
//     and per-shard timings can be joined across a fleet by request id.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"strings"
)

// Environment variables consulted by ConfigFromEnv. Flags layer on top:
// a flag left at its default keeps the environment's answer, an explicit
// flag wins.
const (
	EnvLogLevel  = "DEPMINER_LOG_LEVEL"  // debug | info | warn | error
	EnvLogFormat = "DEPMINER_LOG_FORMAT" // text | json
)

// Config selects the log level and output format. The zero value means
// "info, text".
type Config struct {
	// Level is one of debug, info, warn, error (case-insensitive).
	// Empty = info.
	Level string
	// Format is text or json. Empty = text.
	Format string
}

// ConfigFromEnv reads the layered environment defaults. Unset variables
// leave the corresponding field empty, so flag defaults show through.
func ConfigFromEnv() Config {
	return Config{
		Level:  os.Getenv(EnvLogLevel),
		Format: os.Getenv(EnvLogFormat),
	}
}

// Layer returns cfg with empty fields filled from fallback — the
// flag-over-env composition: Layer(flags, ConfigFromEnv()).
func (c Config) Layer(fallback Config) Config {
	if c.Level == "" {
		c.Level = fallback.Level
	}
	if c.Format == "" {
		c.Format = fallback.Format
	}
	return c
}

// ParseLevel maps a level name onto its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (debug, info, warn, error)", s)
}

// NewLogger builds a logger writing to w under cfg. Invalid level or
// format names are errors, not silent defaults — a fat-fingered
// DEPMINER_LOG_LEVEL should fail loudly at boot, not hide debug output.
func NewLogger(w io.Writer, cfg Config) (*slog.Logger, error) {
	level, err := ParseLevel(cfg.Level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(cfg.Format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (text, json)", cfg.Format)
}

// Nop returns a logger that discards everything — the guaranteed-quiet
// default for tests and for servers constructed without a logger.
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }

// ctxKey keys the request-scoped attributes in a context.
type ctxKey struct{}

// AttrKeyRequestID is the canonical key of the per-request correlation
// id, generated (or adopted from the RequestIDHeader) by Middleware and
// propagated across the fleet so a coordinator's log lines join against
// the workers that served its shards.
const AttrKeyRequestID = "request_id"

// ContextWithAttrs returns a context carrying the parent's attributes
// followed by attrs. The list is copied, never appended in place, so
// sibling goroutines can extend one parent context safely.
func ContextWithAttrs(ctx context.Context, attrs ...slog.Attr) context.Context {
	return context.WithValue(ctx, ctxKey{}, slices.Concat(ContextAttrs(ctx), attrs))
}

// ContextAttrs returns the context's attributes (nil when absent). The
// slice is clipped, so appending to it copies instead of writing into
// the context's list.
func ContextAttrs(ctx context.Context) []slog.Attr {
	attrs, _ := ctx.Value(ctxKey{}).([]slog.Attr)
	return slices.Clip(attrs)
}

// RequestID returns the context's request id, or "".
func RequestID(ctx context.Context) string {
	attrs := ContextAttrs(ctx)
	for i := len(attrs) - 1; i >= 0; i-- {
		if attrs[i].Key == AttrKeyRequestID {
			return attrs[i].Value.String()
		}
	}
	return ""
}

// Logger returns base with the context's attributes attached, so one
// call site produces lines carrying the request id, dataset, and shard
// attributes without threading them by hand. A nil base means Nop.
func Logger(ctx context.Context, base *slog.Logger) *slog.Logger {
	if base == nil {
		return Nop()
	}
	attrs := ContextAttrs(ctx)
	if len(attrs) == 0 {
		return base
	}
	return slog.New(base.Handler().WithAttrs(attrs))
}
