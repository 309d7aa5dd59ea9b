package token

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"repro/internal/route"
)

func testCursor() *route.Cursor {
	return &route.Cursor{
		Src: 0, Dst: 18, Bound: 16,
		Node: 7, InPort: 2, At: 5,
		Index: 41, Backward: true,
		Version: 3, Hops: 120, RoundHops: 17, MaxIndex: 44,
		Rounds: 3, Epochs: 2, Resumptions: 1, SinceEpoch: 9, MaxHeaderBits: 52,
		PeakMemoryBits: 38,
	}
}

// TestRoundTrip: a signed cursor verifies under the same scope and comes
// back field-for-field identical.
func TestRoundTrip(t *testing.T) {
	s := NewSigner([]byte("test-key"))
	cur := testCursor()
	tok, err := s.Sign("world:w1", cur)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	got, err := s.Verify("world:w1", tok)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if *got != *cur {
		t.Fatalf("round trip changed the cursor:\n got %+v\nwant %+v", got, cur)
	}
}

// TestVerifiesCursorWithoutPeakMemory: a token minted before cursors
// carried peak_memory_bits still verifies, with a zero peak.
func TestVerifiesCursorWithoutPeakMemory(t *testing.T) {
	s := NewSigner([]byte("test-key"))
	payload := []byte(`{"scope":"world:w1","cursor":{"src":0,"dst":18,"bound":16,"node":7,"in_port":2,"at":5,` +
		`"index":41,"backward":true,"success":false,"hops":120,"round_hops":17,"max_index":44,"rounds":3,"max_header_bits":52}}`)
	enc := base64.RawURLEncoding
	got, err := s.Verify("world:w1", enc.EncodeToString(payload)+"."+enc.EncodeToString(s.mac(payload)))
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	want := route.Cursor{Dst: 18, Bound: 16, Node: 7, InPort: 2, At: 5, Index: 41, Backward: true,
		Hops: 120, RoundHops: 17, MaxIndex: 44, Rounds: 3, MaxHeaderBits: 52}
	if *got != want {
		t.Fatalf("old token decoded to %+v, want %+v", got, want)
	}
}

// TestRejections: cross-scope replay, tampering, truncation, foreign keys,
// and garbage all fail with ErrInvalid.
func TestRejections(t *testing.T) {
	s := NewSigner([]byte("test-key"))
	tok, err := s.Sign("world:w1", testCursor())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	other := NewSigner([]byte("other-key"))
	bad := map[string]struct {
		signer *Signer
		scope  string
		tok    string
	}{
		"cross-scope":    {s, "world:w2", tok},
		"foreign-key":    {other, "world:w1", tok},
		"truncated":      {s, "world:w1", tok[:len(tok)-3]},
		"tampered-body":  {s, "world:w1", "A" + tok[1:]},
		"no-signature":   {s, "world:w1", strings.Split(tok, ".")[0]},
		"empty":          {s, "world:w1", ""},
		"not-base64":     {s, "world:w1", "!!!.!!!"},
		"empty-envelope": {s, "world:w1", mustSign(t, s, "world:w1")},
	}
	for name, tc := range bad {
		if _, err := tc.signer.Verify(tc.scope, tc.tok); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Verify = %v, want ErrInvalid", name, err)
		}
	}
}

// mustSign signs a payload whose cursor is null (exercising the no-cursor
// rejection) by marshaling through the public API with a tampered
// envelope: we just sign an empty JSON object body by hand.
func mustSign(t *testing.T, s *Signer, scope string) string {
	t.Helper()
	// Forge a structurally valid, correctly signed envelope with no cursor
	// using the signer's own primitives: Sign refuses nil cursors, so build
	// the token the way Sign would.
	payload := []byte(`{"scope":"` + scope + `"}`)
	enc := base64.RawURLEncoding
	return enc.EncodeToString(payload) + "." + enc.EncodeToString(s.mac(payload))
}

// TestRandomKeyPerSigner: the empty-key default yields per-process keys,
// so tokens do not survive a signer (server) restart.
func TestRandomKeyPerSigner(t *testing.T) {
	a, b := NewSigner(nil), NewSigner(nil)
	tok, err := a.Sign("net:boot", testCursor())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := a.Verify("net:boot", tok); err != nil {
		t.Fatalf("self Verify: %v", err)
	}
	if _, err := b.Verify("net:boot", tok); !errors.Is(err, ErrInvalid) {
		t.Fatalf("restarted-signer Verify = %v, want ErrInvalid", err)
	}
}

// FuzzVerify: hostile tokens never panic and never verify; valid-prefix
// corpus entries keep the parser honest about partial structures.
func FuzzVerify(f *testing.F) {
	s := NewSigner([]byte("fuzz-key"))
	good, err := s.Sign("world:w1", testCursor())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add("")
	f.Add(".")
	f.Add("..")
	f.Add(good[:len(good)/2])
	f.Add(strings.Split(good, ".")[0] + ".AAAA")
	f.Add("eyJzY29wZSI6IndvcmxkOncxIn0.") // signed-ish, empty sig
	f.Fuzz(func(t *testing.T, tok string) {
		cur, err := s.Verify("world:w1", tok)
		if err == nil {
			// The only token that may verify is an authentic one; re-sign the
			// cursor and demand it round-trips.
			tok2, err2 := s.Sign("world:w1", cur)
			if err2 != nil || tok2 == "" {
				t.Fatalf("verified cursor does not re-sign: %v", err2)
			}
		} else if !errors.Is(err, ErrInvalid) {
			t.Fatalf("Verify error not wrapping ErrInvalid: %v", err)
		}
	})
}
