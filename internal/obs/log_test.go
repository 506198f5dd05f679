package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedNow() time.Time {
	return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
}

func newTestLogger(level Level, jsonFormat bool) (*Logger, *strings.Builder) {
	var sb strings.Builder
	l := NewLogger(&sb, level, jsonFormat)
	l.now = fixedNow
	return l, &sb
}

// TestLevelFiltering pins the gate: records below the threshold produce no
// output at all.
func TestLevelFiltering(t *testing.T) {
	l, sb := newTestLogger(LevelWarn, false)
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(lines[0], "level=warn") || !strings.Contains(lines[1], "level=error") {
		t.Errorf("unexpected lines: %v", lines)
	}

	l, sb = newTestLogger(LevelDebug, false)
	l.Info("now visible")
	if !strings.Contains(sb.String(), "level=info") {
		t.Errorf("info suppressed at debug threshold: %q", sb.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "Error": LevelError, "": LevelInfo,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel(verbose) accepted")
	}
}

func TestTextFormat(t *testing.T) {
	l, sb := newTestLogger(LevelInfo, false)
	l.Info("sweep done", "classes", 6, "elapsed", "1.2s", "note", "two words")
	got := sb.String()
	want := `time=2026-08-05T12:00:00Z level=info msg="sweep done" classes=6 elapsed=1.2s note="two words"` + "\n"
	if got != want {
		t.Errorf("text line:\ngot  %q\nwant %q", got, want)
	}
}

func TestJSONFormat(t *testing.T) {
	l, sb := newTestLogger(LevelInfo, true)
	l.Info(`say "hi"`, "k", "v")
	var rec map[string]string
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%q", err, sb.String())
	}
	if rec["level"] != "info" || rec["msg"] != `say "hi"` || rec["k"] != "v" {
		t.Errorf("decoded record = %v", rec)
	}
	if rec["time"] != "2026-08-05T12:00:00Z" {
		t.Errorf("time = %q", rec["time"])
	}
}

func TestLoggerConcurrentLinesDoNotInterleave(t *testing.T) {
	l, sb := newTestLogger(LevelInfo, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("line", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "time=") || !strings.Contains(line, "msg=line") {
			t.Fatalf("torn line: %q", line)
		}
	}
}

func TestErrorfBridge(t *testing.T) {
	l, sb := newTestLogger(LevelInfo, false)
	l.Errorf("httpx: panic serving %s: %v", "/v1/x", "boom")
	if !strings.Contains(sb.String(), "level=error") ||
		!strings.Contains(sb.String(), `msg="httpx: panic serving /v1/x: boom"`) {
		t.Errorf("bridge line: %q", sb.String())
	}
}
