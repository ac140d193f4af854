package amigo

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"roamsim/internal/wire"
)

// v3 binary routes: ack-cursor leases, idempotency-keyed uploads and
// 429 + Retry-After backpressure, with internal/wire frames for bodies.
// The serving path is allocation-free in steady state: frame buffers,
// decoders and []Task/[]Result scratch all cycle through pools, and
// decoded result payloads are detached onto one owned slab per batch
// before they reach the spool.

var taskSlicePool = sync.Pool{
	New: func() any {
		s := make([]Task, 0, maxLeaseBatch)
		return &s
	},
}

var resultSlicePool = sync.Pool{
	New: func() any {
		s := make([]Result, 0, 256)
		return &s
	},
}

// acceptsV3 negotiates the content type, answering 415 itself when the
// request is not a v3 frame.
func acceptsV3(w http.ResponseWriter, r *http.Request) bool {
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		http.Error(w, "expected "+wire.ContentType, http.StatusUnsupportedMediaType)
		return false
	}
	return true
}

// readLeaseRequest is the whole decode step of POST /v3/tasks/lease: it
// reads one MsgLeaseRequest frame from body into the pooled *buf and
// normalizes it. The ME name is required and Max is clamped to
// [1, maxLeaseBatch]; Ack needs no clamp, because wire integers are
// unsigned and the decoder rejects any that overflow int. It is fuzzed
// by FuzzLeaseDecode.
func readLeaseRequest(body io.Reader, buf *[]byte) (wire.LeaseRequest, error) {
	h, payload, err := wire.ReadFrame(body, (*buf)[:0])
	*buf = payload // keep any growth pooled
	if err != nil {
		return wire.LeaseRequest{}, err
	}
	if h.Type != wire.MsgLeaseRequest {
		return wire.LeaseRequest{}, fmt.Errorf("amigo: lease: unexpected frame type 0x%02x", h.Type)
	}
	dec := wire.GetDecoder()
	req, err := dec.LeaseRequest(payload)
	wire.PutDecoder(dec)
	if err != nil {
		return wire.LeaseRequest{}, err
	}
	if req.ME == "" {
		return wire.LeaseRequest{}, errors.New("amigo: lease request missing me")
	}
	req.Max = min(max(req.Max, 1), maxLeaseBatch)
	return req, nil
}

// handleV3Lease is POST /v3/tasks/lease: a MsgLeaseRequest frame in, a
// MsgTasks frame out (204 when nothing is queued).
func (s *Server) handleV3Lease(w http.ResponseWriter, r *http.Request) {
	if !acceptsV3(w, r) {
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	req, err := readLeaseRequest(r.Body, buf)
	if err != nil {
		http.Error(w, "bad lease", http.StatusBadRequest)
		return
	}
	tp := taskSlicePool.Get().(*[]Task)
	tasks, err := s.Lease(req.ME, req.Max, req.Ack, (*tp)[:0])
	*tp = tasks
	defer taskSlicePool.Put(tp)
	if err != nil {
		http.Error(w, "unknown me", http.StatusNotFound)
		return
	}
	if len(tasks) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	*buf = wire.AppendTasks((*buf)[:0], tasks)
	s.writeFrame(w, *buf)
}

// handleV3Results is POST /v3/results: a MsgResults frame in, 204 out
// (429 + Retry-After when the spool is full). A batch whose
// Idempotency-Key was already accepted is dropped (SubmitKeyed).
func (s *Server) handleV3Results(w http.ResponseWriter, r *http.Request) {
	if !acceptsV3(w, r) {
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	h, payload, err := wire.ReadFrame(r.Body, (*buf)[:0])
	*buf = payload // keep any growth pooled
	if err != nil || h.Type != wire.MsgResults {
		http.Error(w, "bad v3 frame", http.StatusBadRequest)
		return
	}
	dec := wire.GetDecoder()
	rp := resultSlicePool.Get().(*[]Result)
	defer resultSlicePool.Put(rp)
	batch, err := dec.Results(payload, (*rp)[:0])
	*rp = batch
	wire.PutDecoder(dec)
	if err != nil {
		http.Error(w, "bad results", http.StatusBadRequest)
		return
	}
	// The decoded payloads alias the pooled frame buffer; move them onto
	// owned storage before they outlive this request (Submit copies the
	// Result structs, not the bytes their Payload fields point at).
	detachPayloads(batch)
	if err := s.SubmitKeyed(r.Header.Get("Idempotency-Key"), batch); err != nil {
		s.rejectBusy(w)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// detachPayloads copies every payload in the batch onto one freshly
// allocated slab — a single allocation per batch whose ownership
// transfers to the sink — so the frame buffer the payloads currently
// alias can be safely recycled.
func detachPayloads(batch []Result) {
	total := 0
	for i := range batch {
		total += len(batch[i].Payload)
	}
	if total == 0 {
		return
	}
	slab := make([]byte, 0, total)
	for i := range batch {
		if len(batch[i].Payload) == 0 {
			continue
		}
		slab = append(slab, batch[i].Payload...)
		batch[i].Payload = slab[len(slab)-len(batch[i].Payload):]
	}
}
