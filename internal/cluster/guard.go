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

// The request guards. Get, PostJSON and PostStream wrap every route of
// both HTTP tiers — the shard's (internal/serve) and the router's — so
// the method, Content-Type and size checks happen in one place, before
// any body byte is read, and answer alike on both. A guarded handler
// gets the decoded request, the body's bytes or the capped body reader
// as a parameter; a function that reads r.Body itself does not fit a
// route table.

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
// maxBody, read whole and decoded by decodeJSON, and nothing but
// whitespace after the value: a second document is a malformed request.
func PostJSON[T any](maxBody int64, h func(http.ResponseWriter, *http.Request, *T)) http.HandlerFunc {
	return postBytes(maxBody, func(w http.ResponseWriter, r *http.Request, body []byte) {
		var v T
		if err := decodeJSON(body, &v); err != nil {
			bodyError(w, err)
			return
		}
		h(w, r, &v)
	})
}

// postBytes guards a JSON route that takes its body whole: PostStream's
// checks, then the body read into one buffer sized by its declared
// length. The router's data plane uses it to forward a request as the
// bytes that arrived.
func postBytes(maxBody int64, h func(http.ResponseWriter, *http.Request, []byte)) http.HandlerFunc {
	return PostStream(mediaJSON, maxBody, func(w http.ResponseWriter, r *http.Request, body io.Reader, _ int64) error {
		buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
		_, err := buf.ReadFrom(body)
		if err == nil {
			h(w, r, buf.Bytes())
		}
		return err
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
			if _, rest := io.Copy(io.Discard, body); rest != nil {
				err = rest
			}
			bodyError(w, err)
		}
	}
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
