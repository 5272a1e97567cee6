package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// RequestIDHeader is the header (X-Request-ID) under which every response
// carries the request's ID (client-supplied or generated), in net/http's
// canonical spelling so Header.Get and Set need not derive it per call.
const RequestIDHeader = "X-Request-Id"

// ridFallback seeds generated IDs when crypto/rand fails (it practically
// never does); a process-unique counter keeps them distinct regardless.
var ridFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := ridFallback.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// AdoptRequestID returns the ID a request is served under: the
// client-supplied X-Request-ID when it is well-formed, a fresh
// NewRequestID otherwise.
func AdoptRequestID(supplied string) string {
	if validRequestID(supplied) {
		return supplied
	}
	return NewRequestID()
}

// validRequestID accepts client-supplied IDs that are short and free of
// header/log-breaking characters; anything else is replaced.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// AccessEntry is one structured access-log line. The server fills it
// from the request's record once the handler has returned.
type AccessEntry struct {
	Time       string  `json:"time"`
	RequestID  string  `json:"request_id,omitempty"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Query      string  `json:"query,omitempty"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Remote     string  `json:"remote,omitempty"`
	// Cache is the engine cache disposition (hit, miss, coalesced,
	// bypass) of a successful query; empty for requests that never
	// consult the score-set cache.
	Cache string `json:"cache,omitempty"`
	// CorpusEpoch is the corpus snapshot epoch a successful query or
	// corpus write was served against; nil for requests that never pin a
	// snapshot. Joining access-log lines with /v1/corpus mutations by
	// epoch attributes a latency shift to the corpus change that caused
	// it.
	CorpusEpoch *uint64 `json:"corpus_epoch,omitempty"`
	// Corpus is the tenant the request resolved to; empty for routes
	// that touch no corpus.
	Corpus string `json:"corpus,omitempty"`
	// TraceID is the request's trace ID when its trace was retained by
	// the tail sampler — the join key from a log line to
	// GET /v1/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}
