package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzGossipHandler drives the /gossip wire with arbitrary bodies against
// a node whose cluster is signed. The handler must never panic, a body
// that is not one JSON document must get a 4xx, and a record whose
// signature does not verify under the cluster secret must never enter the
// membership view.
func FuzzGossipHandler(f *testing.F) {
	const secret = "fuzz-secret"
	signed := sampleRecord()
	signed.Sign(secret)
	forged := signed
	forged.Spare = 99 // tampered after signing
	unsigned := sampleRecord()
	unsigned.ID = "http://n2:8077"
	for _, msg := range []gossipMsg{
		{From: "a", Peers: []Record{signed}},
		{From: "a", Peers: []Record{forged, unsigned}},
		{From: "a"},
	} {
		b, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		"", "{", "null", "[]", "{}x", `{"peers":5}`,
		`{"peers":[{"id":"x","role":"serve"}]}`, `{"peers":[{"id":"x","role":"serve","sig":"00"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := NewNode(Config{ID: "self", Addr: "http://self:1", Secret: secret})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		n.GossipHandler()(rec, httptest.NewRequest(http.MethodPost, "/gossip", bytes.NewReader(body)))
		if !json.Valid(body) && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("malformed body %q: status %d, want 4xx", body, rec.Code)
		}
		for _, p := range n.View().Peers {
			if !p.Self && !p.Record.Verify(secret) {
				t.Fatalf("body %q: record %q entered the view without a valid signature", body, p.ID)
			}
		}
	})
}
