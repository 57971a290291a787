package obsv

import (
	"fmt"
	"io"
	"log/slog"
)

// Log formats accepted by -log-format.
const (
	LogText = "text"
	logJSON = "json"
)

// ValidLogFormat reports whether f names a supported log format ("" means
// the text default, matching NewLogger).
func ValidLogFormat(f string) bool { return f == LogText || f == logJSON || f == "" }

// NewLogger builds the command-line logger: text (human, the default) or
// json (machine-parseable, one object per line). Unknown formats error so
// validate() can reject them before a run starts.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	switch format {
	case LogText, "":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case logJSON:
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want %s or %s)", format, LogText, logJSON)
	}
}
