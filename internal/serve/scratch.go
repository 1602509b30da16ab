package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// maxBodyBytes bounds request bodies (per-request decode limit).
const maxBodyBytes = 1 << 20

// postScratch is the per-request decode scratch of the submission
// handlers: the body buffer, the canonical-key buffer and the decoded
// request are pooled and reused across requests, so a steady stream of
// submissions stops allocating fresh decode state per POST.
type postScratch struct {
	buf []byte      // request body bytes
	key []byte      // canonical store key (AppendKey target)
	req TuneRequest // decode target of POST /v1/jobs
	rd  bytes.Reader
}

var scratchPool = sync.Pool{New: func() any {
	return &postScratch{
		buf: make([]byte, 0, 4096),
		key: make([]byte, 0, 192),
	}
}}

func getScratch() *postScratch { return scratchPool.Get().(*postScratch) }

func putScratch(sc *postScratch) { scratchPool.Put(sc) }

// decode reads the bounded request body into the pooled buffer and
// strictly decodes it into v: unknown fields are rejected, and the body
// must hold exactly one JSON value (trailing whitespace is fine). The
// pooled TuneRequest is reset first so a reused scratch never leaks
// fields from an earlier request into a sparse body. A body decode
// refuses is answered here, 413 past maxBodyBytes and 400 otherwise, and
// decode reports false.
func (sc *postScratch) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := sc.decodeBody(w, r, v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorJSON{"serve: decoding request body: " + err.Error()})
	return false
}

// decodeBody is decode without the answer: it returns why the body was
// refused, or nil.
func (sc *postScratch) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	sc.req = TuneRequest{}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := sc.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.buf = buf
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
	}
	sc.rd.Reset(sc.buf)
	dec := json.NewDecoder(&sc.rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range sc.buf[dec.InputOffset():] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return errors.New("data after the JSON value")
		}
	}
	return nil
}
