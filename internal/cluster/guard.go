package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
)

// The request guards. Get, PostJSON and PostStream wrap every route of
// both HTTP tiers (the shard's, internal/serve, and the router's), so
// the method, Content-Type and size checks happen in one place before
// any body byte is read, and a handler gets the decoded request, the
// body or the capped body reader, never r.Body.

const (
	mediaJSON  = "application/json"
	mediaBytes = "application/octet-stream"
)

// Get guards a body-less route: GET only.
func Get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if admit(w, r, http.MethodGet, "") {
			h(w, r)
		}
	}
}

// PostJSON guards a route whose body is one JSON value of type T: POST
// only, a JSON Content-Type when one is sent, the body capped at
// maxBody, read whole by postBody and decoded by decodeJSON, and nothing
// but whitespace after the value: a second document is a malformed
// request. The buffer is parked before h runs; nothing decodeJSON
// returns aliases it (parseNumbers fills its own slice, json.Unmarshal
// copies strings and RawMessages).
func PostJSON[T any](maxBody int64, h func(http.ResponseWriter, *http.Request, *T)) http.HandlerFunc {
	return postBody(maxBody, func(w http.ResponseWriter, r *http.Request, b *body) {
		var v T
		err := decodeJSON(b.b, &v)
		b.release()
		if err != nil {
			bodyError(w, err)
			return
		}
		h(w, r, &v)
	})
}

// postBody guards a JSON route that takes its body whole: PostStream's
// checks, then the body read into a parked buffer when its length is
// declared (else into a new one). h holds the body's one reference and
// releases it. The router forwards a request as the bytes that arrived
// through readers over the buffer.
func postBody(maxBody int64, h func(http.ResponseWriter, *http.Request, *body)) http.HandlerFunc {
	return PostStream(mediaJSON, maxBody, func(w http.ResponseWriter, r *http.Request, rd io.Reader, _ int64) (err error) {
		b := &body{}
		b.refs.Add(1)
		if r.ContentLength < 0 {
			b.b, err = io.ReadAll(rd)
		} else {
			b.b = takeBuf(int(r.ContentLength))
			_, err = io.ReadFull(rd, b.b)
		}
		if err != nil {
			b.release()
			return err
		}
		h(w, r, b)
		return nil
	})
}

// PostStream guards a route that reads its body as it arrives: POST
// only, the given media type, at most maxBody bytes (a declared length
// over it refused unread). The handler gets the capped body and the
// most bytes it can carry, the declared length or maxBody, to refuse a
// claimed size before allocating it. An error it returns with no reply
// written is a body error once the rest of the body is dropped, so a
// body over the cap is 413 however far the handler read.
func PostStream(mediaType string, maxBody int64, h func(http.ResponseWriter, *http.Request, io.Reader, int64) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, http.MethodPost, mediaType) {
			return
		}
		if r.ContentLength > maxBody {
			bodyError(w, &http.MaxBytesError{Limit: maxBody})
			return
		}
		limit := maxBody
		if r.ContentLength >= 0 {
			limit = r.ContentLength
		}
		body := http.MaxBytesReader(w, r.Body, maxBody)
		if err := h(w, r, body, limit); err != nil {
			if rest := copyBuf(io.Discard, body); rest != nil {
				err = rest
			}
			bodyError(w, err)
		}
	}
}

// admit checks the method (405 with Allow otherwise) and, for a route
// with a body, the media type (415 otherwise): a JSON route also takes
// a request that names none (curl -d and most scripts send none worth
// checking), a binary route requires its type exactly.
func admit(w http.ResponseWriter, r *http.Request, method, mediaType string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		HTTPError(w, http.StatusMethodNotAllowed, "method %s not allowed, use %s", r.Method, method)
		return false
	}
	ct := r.Header.Get("Content-Type")
	if mediaType == "" || (ct == "" && mediaType == mediaJSON) {
		return true
	}
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != mediaType {
		HTTPError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q, use %s", ct, mediaType)
		return false
	}
	return true
}

// bodyError is every guarded route's reply to a body read or decode
// error: 413 carrying the limit for an oversized body, else 400.
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		HTTPError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	HTTPError(w, http.StatusBadRequest, "bad request: %v", err)
}

// HTTPError writes the one error shape both tiers reply with:
// {"error": "..."} under the given status.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as the JSON reply under the given status, or a 500
// when v does not encode (a NaN, say): the status goes out with the
// encoder's one Write, after all of v is marshalled.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", mediaJSON)
	sw := &statusWriter{w: w, status: status}
	if err := json.NewEncoder(sw).Encode(v); err != nil && !sw.sent {
		HTTPError(w, http.StatusInternalServerError, "encode reply: %v", err)
	}
}

// statusWriter writes a reply body to w, sending status first.
type statusWriter struct {
	w      http.ResponseWriter
	status int
	sent   bool
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.sent {
		sw.sent = true
		sw.w.WriteHeader(sw.status)
	}
	return sw.w.Write(p)
}

// The free list that request bodies, copy buffers and wire chunks come
// from and go back to. Capacities are powers of two from minBuf, so
// bodies a few KB apart share a class and its parked buffers. At most
// parkCap bytes stay parked: an n = 512 factor body (5.2 MB) takes
// 8 MiB, and W = 4 clients keep 2·W bodies in flight (router and
// shard), 8 × 8 MiB. Any other buffer is left to the collector.
const minBuf, parkCap = 64 << 10, 64 << 20

var parked struct {
	sync.Mutex
	bytes int
	free  [11][][]byte // free[c]: capacity minBuf<<c, up to parkCap
}

// takeBuf returns an n-byte buffer, parked or new.
func takeBuf(n int) []byte {
	c := bits.Len(uint(max(n-1, 0) / minBuf))
	if c >= len(parked.free) {
		return make([]byte, n)
	}
	parked.Lock()
	if free := parked.free[c]; len(free) > 0 {
		b := free[len(free)-1]
		parked.free[c], parked.bytes = free[:len(free)-1], parked.bytes-cap(b)
		parked.Unlock()
		return b[:n]
	}
	parked.Unlock()
	return make([]byte, n, minBuf<<c)
}

// putBuf parks b if takeBuf made it and the cap has room.
func putBuf(b []byte) {
	c := bits.Len(uint(cap(b)-1) / minBuf)
	parked.Lock()
	defer parked.Unlock()
	if c < len(parked.free) && cap(b) == minBuf<<c && parked.bytes+cap(b) <= parkCap {
		parked.free[c], parked.bytes = append(parked.free[c], b), parked.bytes+cap(b)
	}
}

// copyBuf copies src to dst through a parked buffer, hiding a dst's
// ReadFrom, which would take a buffer of its own.
func copyBuf(dst io.Writer, src io.Reader) error {
	buf := takeBuf(minBuf)
	defer putBuf(buf)
	_, err := io.CopyBuffer(struct{ io.Writer }{dst}, src, buf)
	return err
}

// body is a request body in a parked buffer. Its handler and each
// reader over it hold a reference; the last to let go parks the buffer.
type body struct {
	b    []byte
	refs atomic.Int32
}

func (b *body) release() {
	if b.refs.Add(-1) == 0 {
		putBuf(b.b)
	}
}

// reader returns a reader over b holding a reference until it is
// closed, which a transport may do after Do returns (a shard replied
// before reading the whole body) and from another goroutine.
func (b *body) reader() *bodyReader {
	b.refs.Add(1)
	return &bodyReader{rd: bytes.NewReader(b.b), src: b}
}

type bodyReader struct {
	mu  sync.Mutex
	rd  *bytes.Reader
	src *body // nil once closed
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.src == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	return r.rd.Read(p)
}

func (r *bodyReader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.src != nil {
		r.src.release()
		r.src = nil
	}
	return nil
}
