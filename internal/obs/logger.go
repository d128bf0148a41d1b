package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity. Records below the logger's minimum are
// dropped before formatting.
type Level int

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level the way it appears in the JSON record.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
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

// Logger writes structured JSON lines: {"ts":...,"level":...,"msg":...}
// followed by the caller's key/value pairs in argument order. One line
// per record, one Write call per line, serialized by a mutex so
// concurrent handlers never interleave bytes. Safe on a nil receiver
// (drops everything), so optional logging costs one nil check.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time
}

// NewLogger builds a logger writing to w, dropping records below min.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Enabled reports whether records at lv would be written.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min
}

// Debug logs at debug level. kv alternates string keys and values.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Log logs at level lv; Debug, Info, Warn and Error are its shorthands.
func (l *Logger) Log(lv Level, msg string, kv ...any) {
	if !l.Enabled(lv) {
		return
	}
	var buf bytes.Buffer
	buf.WriteByte('{')
	buf.WriteString(`"ts":`)
	appendJSON(&buf, l.now().UTC().Format(time.RFC3339Nano))
	buf.WriteString(`,"level":`)
	appendJSON(&buf, lv.String())
	buf.WriteString(`,"msg":`)
	appendJSON(&buf, msg)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		var val any = "(MISSING)"
		if i+1 < len(kv) {
			val = kv[i+1]
		}
		buf.WriteByte(',')
		appendJSON(&buf, key)
		buf.WriteByte(':')
		appendJSON(&buf, val)
	}
	buf.WriteString("}\n")

	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(buf.Bytes()) //nolint:errcheck // logging is best-effort
}

// appendJSON marshals v onto buf, falling back to the %v rendering for
// values encoding/json refuses (channels, NaN floats, cyclic data).
func appendJSON(buf *bytes.Buffer, v any) {
	if err, ok := v.(error); ok && err != nil {
		v = err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("%v", v))
	}
	buf.Write(b)
}
