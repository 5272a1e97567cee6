package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the header (X-Request-ID) under which every response
// carries the request's ID (client-supplied or generated), in net/http's
// canonical spelling so Header.Get and Set need not derive it per call.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

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

// RequestID is middleware that assigns every request an ID — reusing a
// well-formed client-supplied X-Request-ID, generating one otherwise —
// sets it on the response header before the handler runs (so even panic
// and shed paths carry it), and stores it in the request context for
// handlers and the access log.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// RequestIDFrom returns the request ID stored by the RequestID
// middleware, or "" when the middleware is not installed.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// StatusRecorder wraps an http.ResponseWriter, capturing the status code
// and body byte count for instrumentation and access logging.
type StatusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

// NewStatusRecorder wraps w.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w}
}

// WriteHeader implements http.ResponseWriter.
func (s *StatusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.status, s.wrote = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (s *StatusRecorder) Write(b []byte) (int, error) {
	if !s.wrote {
		s.status, s.wrote = http.StatusOK, true
	}
	n, err := s.ResponseWriter.Write(b)
	s.bytes += int64(n)
	return n, err
}

// Flush passes through to the underlying writer when it supports it.
func (s *StatusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the response status (200 if the handler wrote a body
// without an explicit WriteHeader, 0 if nothing was written).
func (s *StatusRecorder) Status() int {
	if !s.wrote {
		return 0
	}
	return s.status
}

// BytesWritten returns the number of body bytes written.
func (s *StatusRecorder) BytesWritten() int64 { return s.bytes }

// AccessEntry is one structured access-log line.
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
	// bypass) noted by the handler via NoteCache; empty for requests that
	// never consult the score-set cache.
	Cache string `json:"cache,omitempty"`
	// CorpusEpoch is the corpus snapshot epoch the request was served
	// against, noted by the handler via NoteEpoch; nil for requests that
	// never pin a snapshot. Joining access-log lines with /v1/corpus
	// mutations by epoch attributes a latency shift to the corpus change
	// that caused it.
	CorpusEpoch *uint64 `json:"corpus_epoch,omitempty"`
	// Corpus is the tenant the request resolved to, noted by the handler
	// via NoteCorpus; empty for routes that touch no corpus.
	Corpus string `json:"corpus,omitempty"`
	// TraceID is the request's trace ID when its trace was retained by
	// the tail sampler, noted via NoteTrace — the join key from a log
	// line to GET /v1/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// requestNote is a per-request mutable slot the AccessLog middleware
// plants in the context so the handler, deep in the call chain, can
// report facts the log line should carry.
type requestNote struct {
	mu     sync.Mutex
	cache  string
	epoch  *uint64
	corpus string
	trace  string
}

type requestNoteKey struct{}

// NoteCache records the engine cache disposition for the current request's
// access-log line. It is a no-op when AccessLog is not installed.
func NoteCache(ctx context.Context, disposition string) {
	n, _ := ctx.Value(requestNoteKey{}).(*requestNote)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.cache = disposition
	n.mu.Unlock()
}

// NoteEpoch records the corpus epoch the current request was served
// against. It is a no-op when AccessLog is not installed.
func NoteEpoch(ctx context.Context, epoch uint64) {
	n, _ := ctx.Value(requestNoteKey{}).(*requestNote)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.epoch = &epoch
	n.mu.Unlock()
}

// NoteCorpus records the tenant the current request resolved to. It is
// a no-op when AccessLog is not installed.
func NoteCorpus(ctx context.Context, corpus string) {
	n, _ := ctx.Value(requestNoteKey{}).(*requestNote)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.corpus = corpus
	n.mu.Unlock()
}

// NoteTrace records the current request's retained trace ID. It is a
// no-op when AccessLog is not installed.
func NoteTrace(ctx context.Context, traceID string) {
	n, _ := ctx.Value(requestNoteKey{}).(*requestNote)
	if n == nil {
		return
	}
	n.mu.Lock()
	n.trace = traceID
	n.mu.Unlock()
}

// AccessLog is middleware that writes one JSON line per request to out,
// serialising concurrent writers so lines never interleave. Install it
// inside RequestID (so lines carry the ID) and outside the panic
// recovery middleware (so recovered 500s are logged with their status).
func AccessLog(next http.Handler, out io.Writer) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := NewStatusRecorder(w)
		note := &requestNote{}
		r = r.WithContext(context.WithValue(r.Context(), requestNoteKey{}, note))
		next.ServeHTTP(sr, r)
		note.mu.Lock()
		cache, epoch, corpus, trace := note.cache, note.epoch, note.corpus, note.trace
		note.mu.Unlock()
		e := AccessEntry{
			Time:        start.UTC().Format(time.RFC3339Nano),
			RequestID:   RequestIDFrom(r.Context()),
			Method:      r.Method,
			Path:        r.URL.Path,
			Query:       r.URL.RawQuery,
			Status:      sr.Status(),
			Bytes:       sr.BytesWritten(),
			DurationMS:  float64(time.Since(start).Microseconds()) / 1e3,
			Remote:      r.RemoteAddr,
			Cache:       cache,
			CorpusEpoch: epoch,
			Corpus:      corpus,
			TraceID:     trace,
		}
		line, err := json.Marshal(e)
		if err != nil {
			return // an AccessEntry cannot actually fail to marshal
		}
		mu.Lock()
		out.Write(append(line, '\n'))
		mu.Unlock()
	})
}
