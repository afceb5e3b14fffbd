package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
)

// The request guards. Get, PostJSON and PostBytes wrap every route of
// both HTTP tiers — the shard's (internal/serve) and the router's — so
// the method, Content-Type and size checks happen in one place, before
// any body byte is read, and answer alike on both. A body is read once,
// into one buffer of its declared size; a JSON body is then decoded by
// DecodeJSON, which parses a request's bulk number array in one pass. A
// guarded handler receives the decoded request or the capped bytes as a
// parameter: a function that reads r.Body itself does not fit a route
// table.

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
// maxBody, and nothing but whitespace after the value — a second
// document or stray bytes are a malformed request, not something to
// ignore. The body is read whole (PostBytes), then decoded by
// DecodeJSON.
func PostJSON[T any](maxBody int64, h func(http.ResponseWriter, *http.Request, *T)) http.HandlerFunc {
	return PostBytes(mediaJSON, maxBody, func(w http.ResponseWriter, r *http.Request, body []byte) {
		var v T
		if err := DecodeJSON(body, &v); err != nil {
			bodyError(w, err)
			return
		}
		h(w, r, &v)
	})
}

// PostBytes guards a route that takes its body whole: POST only, the
// given media type, at most maxBody bytes. A declared Content-Length
// over maxBody is refused before any byte is read; one within it sizes
// the buffer the body is read into. The router's data plane uses it to
// forward a JSON request as the bytes that arrived.
func PostBytes(mediaType string, maxBody int64, h func(http.ResponseWriter, *http.Request, []byte)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !admit(w, r, http.MethodPost, mediaType) {
			return
		}
		if r.ContentLength > maxBody {
			bodyError(w, &http.MaxBytesError{Limit: maxBody})
			return
		}
		body, err := readSized(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength, maxBody)
		if err != nil {
			bodyError(w, err)
			return
		}
		h(w, r, body)
	}
}

// readSized reads r to its end. A declared length n with 0 < n <= max
// sizes the one buffer the bytes go to; any other (unknown, or not to
// be trusted with an allocation) leaves the buffer to grow as io.ReadAll
// grows it.
func readSized(r io.Reader, n, max int64) ([]byte, error) {
	if n <= 0 || n > max {
		return io.ReadAll(r)
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// admit checks what must hold before any body byte is read: the method
// (405 with Allow otherwise) and, for a route with a body, the media
// type (415 otherwise). A JSON route accepts a request that names no
// Content-Type — curl -d and most scripts send none worth checking —
// while a binary route requires its type exactly.
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

// bodyError maps a request-body read or decode error to its reply: an
// oversized body is 413 carrying the limit, anything else the caller's
// 400. Every guarded route reports body errors through it, so both
// tiers give each body error the same status.
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

// WriteJSON writes v as the JSON reply under the given status. A v that
// does not encode (a NaN, say) is a 500 instead: the encoder marshals
// all of v before its one Write, and the status goes out with that
// Write, so no byte of the reply has been sent when encoding fails.
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
