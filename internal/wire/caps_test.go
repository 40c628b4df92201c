package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestHelloCapsRoundTrip(t *testing.T) {
	v, caps, err := DecodeHelloCaps(EncodeHelloCaps(ProtocolV2, CapPeerServe))
	if err != nil || v != ProtocolV2 || caps != CapPeerServe {
		t.Fatalf("round trip: v=%d caps=%#x err=%v", v, caps, err)
	}
	// The Hello frame a dialer sends, byte for byte: the handshake frame
	// header (length 9, type 20), then version 2 and the caps word.
	var frame bytes.Buffer
	if err := WriteFrame(&frame, MsgHello, EncodeHelloCaps(ProtocolV2, CapPeerServe)); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 9, 20, 0, 0, 0, 2, 0, 0, 0, 1}; !bytes.Equal(frame.Bytes(), want) {
		t.Fatalf("hello frame = % x, want % x", frame.Bytes(), want)
	}
	// Only the 8-byte version+caps form is a hello: the pre-capability
	// 4-byte form and trailing bytes are rejected.
	for _, body := range [][]byte{
		{0, 0, 0, ProtocolV2},
		{1, 2},
		append(EncodeHelloCaps(ProtocolV2, 0), 0),
	} {
		if _, _, err := DecodeHelloCaps(body); err == nil {
			t.Fatalf("%d-byte hello accepted", len(body))
		}
	}
	if _, _, err := DecodeHelloCaps(EncodeHelloCaps(0, 0)); err == nil {
		t.Fatal("version 0 accepted")
	}
}

func TestPeerTierErrorCodes(t *testing.T) {
	cases := []*WireError{
		Behind("items", "edge: requester at v7, peer replica head at v7"),
		DeltaGap("items", "edge: no relayable delta from v2"),
	}
	sentinels := []error{ErrBehind, ErrDeltaGap}
	for i, we := range cases {
		got := DecodeWireError(we.Encode())
		if got.Code != we.Code || got.Table != we.Table || got.Msg != we.Msg {
			t.Fatalf("case %d: %+v decoded to %+v", i, we, got)
		}
		if !errors.Is(got, sentinels[i]) {
			t.Fatalf("case %d does not match its sentinel", i)
		}
		for j, s := range sentinels {
			if i != j && errors.Is(got, s) {
				t.Fatalf("case %d matched foreign sentinel %v", i, s)
			}
		}
		// Neither failover code is mistakable for the retryable or
		// staleness families the refresh loop also dispatches on.
		for _, s := range []error{ErrStaleReplica, ErrUnsupported, ErrUnknownTable} {
			if errors.Is(got, s) {
				t.Fatalf("case %d matched %v", i, s)
			}
		}
	}
	if CodeBehind.String() != "behind" || CodeDeltaGap.String() != "delta-gap" {
		t.Fatalf("code strings: %q, %q", CodeBehind.String(), CodeDeltaGap.String())
	}
}
