package amigo

import (
	"bytes"
	"testing"

	"roamsim/internal/wire"
)

// FuzzLeaseDecode hammers readLeaseRequest — the whole decode step of
// POST /v3/tasks/lease — with arbitrary request bodies. It must never
// panic, and every request it accepts must come out normalized: a
// non-empty ME, Max clamped into [1, maxLeaseBatch], and a
// non-negative Ack — the guarantees Server.Lease relies on.
func FuzzLeaseDecode(f *testing.F) {
	lease := func(req wire.LeaseRequest) []byte { return wire.AppendLeaseRequest(nil, req) }
	f.Add(lease(wire.LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7}))
	f.Add(lease(wire.LeaseRequest{ME: "m"}))                                 // Max absent
	f.Add(lease(wire.LeaseRequest{ME: "m", Max: -3, Ack: -9}))               // past MaxInt64
	f.Add(lease(wire.LeaseRequest{ME: "m", Max: 999999}))                    // huge Max
	f.Add(lease(wire.LeaseRequest{Max: 5}))                                  // ME absent
	f.Add(lease(wire.LeaseRequest{ME: "me-PAK", Max: 2})[:wire.HeaderLen+3]) // truncated
	f.Add([]byte{})
	f.Add(wire.AppendTasks(nil, []wire.Task{{ID: 1, Kind: "dns", Config: "sim"}})) // wrong type
	f.Add(bytes.Repeat([]byte{0xff}, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		req, err := readLeaseRequest(bytes.NewReader(data), &buf)
		if err != nil {
			return
		}
		if req.ME == "" {
			t.Fatal("accepted request with empty ME")
		}
		if req.Max < 1 || req.Max > maxLeaseBatch {
			t.Fatalf("accepted Max = %d outside [1, %d]", req.Max, maxLeaseBatch)
		}
		if req.Ack < 0 {
			t.Fatalf("accepted negative Ack = %d", req.Ack)
		}
	})
}
