package obs

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Leveled structured logging: key=value lines (or JSON with -log-json)
// replacing the bare log.Printf/fmt.Fprintf status output scattered through
// the servers and CLIs. The level gate is one atomic load, so
// debug-level instrumentation left in hot-ish paths costs nothing when the
// level is info or above.

// Level orders log severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level the way it appears in output.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// Logger writes leveled structured records. Safe for concurrent use; each
// record is assembled in one buffer and written with a single Write under
// the mutex, so concurrent lines never interleave.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
	json  bool
	now   func() time.Time // overridden in tests for stable output
}

// NewLogger creates a logger writing at or above level to w; jsonFormat
// selects JSON records over key=value text.
func NewLogger(w io.Writer, level Level, jsonFormat bool) *Logger {
	l := &Logger{w: w, json: jsonFormat, now: time.Now}
	l.level.Store(int32(level))
	return l
}

var defaultLogger atomic.Pointer[Logger]

func init() {
	defaultLogger.Store(NewLogger(os.Stderr, LevelInfo, false))
}

// DefaultLogger is the process-wide logger the servers and instrumented
// subsystems report through.
func DefaultLogger() *Logger { return defaultLogger.Load() }

// SetDefaultLogger replaces the process-wide logger (the CLIs call it after
// parsing -log-level/-log-json).
func SetDefaultLogger(l *Logger) {
	if l != nil {
		defaultLogger.Store(l)
	}
}

// Enabled reports whether records at level pass the threshold.
func (l *Logger) Enabled(level Level) bool { return int32(level) >= l.level.Load() }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// Errorf is the printf bridge for the logf hooks threaded through the
// servers (panic reports, handler errors).
func (l *Logger) Errorf(format string, args ...any) {
	l.log(LevelError, fmt.Sprintf(format, args...), nil)
}

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	ts := l.now().UTC().Format(time.RFC3339Nano)
	var b strings.Builder
	if l.json {
		b.WriteString(`{"time":`)
		b.WriteString(strconv.Quote(ts))
		b.WriteString(`,"level":`)
		b.WriteString(strconv.Quote(level.String()))
		b.WriteString(`,"msg":`)
		b.WriteString(strconv.Quote(msg))
		for i := 0; i+1 < len(kv); i += 2 {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(fmt.Sprint(kv[i])))
			b.WriteByte(':')
			b.WriteString(strconv.Quote(fmt.Sprint(kv[i+1])))
		}
		b.WriteString("}\n")
	} else {
		b.WriteString("time=")
		b.WriteString(ts)
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(quoteIfNeeded(msg))
		for i := 0; i+1 < len(kv); i += 2 {
			b.WriteByte(' ')
			b.WriteString(fmt.Sprint(kv[i]))
			b.WriteByte('=')
			b.WriteString(quoteIfNeeded(fmt.Sprint(kv[i+1])))
		}
		b.WriteByte('\n')
	}
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// quoteIfNeeded quotes values containing spaces, quotes, or control
// characters so key=value lines stay machine-splittable.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	for _, c := range s {
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}
