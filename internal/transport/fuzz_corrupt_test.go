// Fuzzing of damaged frames lives in an external test package so it can
// seed its corpora from the faultnet corrupter (which itself imports
// transport) without an import cycle.
package transport_test

import (
	"bytes"
	"testing"

	"hvac/internal/faultnet"
	"hvac/internal/transport"
)

// sampleFrames returns valid encoded request and response frames to
// damage.
func sampleFrames(t testing.TB) (req, resp []byte) {
	t.Helper()
	var reqBuf, respBuf bytes.Buffer
	if err := transport.WriteRequest(&reqBuf, &transport.Request{
		Op: transport.OpRead, Handle: 7, Off: 4096, Len: 16384, Path: "/gpfs/dataset/f0001.rec",
	}); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteResponse(&respBuf, &transport.Response{
		Status: transport.StatusOK, Handle: 7, Size: 512, Data: bytes.Repeat([]byte{0x5A}, 512),
	}); err != nil {
		t.Fatal(err)
	}
	return reqBuf.Bytes(), respBuf.Bytes()
}

// FuzzReadRequestDamaged fuzzes the request decoder from corpora produced
// by the faultnet corrupter: truncated and bit-flipped variants of a
// valid frame. Decoding must error or succeed — never panic — and must
// not hand back more bytes than it was given (the frame length field is
// attacker-controlled).
func FuzzReadRequestDamaged(f *testing.F) {
	frame, _ := sampleFrames(f)
	for seed := uint64(1); seed <= 16; seed++ {
		c := faultnet.NewCorrupter(seed)
		f.Add(c.Truncate(append([]byte(nil), frame...)))
		f.Add(c.BitFlip(append([]byte(nil), frame...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := transport.ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Path) > len(data) {
			t.Fatalf("decoder over-allocated: %d path bytes from a %d byte input", len(req.Path), len(data))
		}
	})
}

// FuzzReadResponseDamaged is the response-side counterpart.
func FuzzReadResponseDamaged(f *testing.F) {
	_, frame := sampleFrames(f)
	for seed := uint64(1); seed <= 16; seed++ {
		c := faultnet.NewCorrupter(seed)
		f.Add(c.Truncate(append([]byte(nil), frame...)))
		f.Add(c.BitFlip(append([]byte(nil), frame...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLandingAgrees(t, data)
		resp, err := transport.ReadResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(resp.Data)+len(resp.Err) > len(data) {
			t.Fatalf("decoder over-allocated: %d payload bytes from a %d byte input",
				len(resp.Data)+len(resp.Err), len(data))
		}
	})
}

// checkLandingAgrees decodes one (possibly damaged) frame twice — into a
// pooled buffer and into a caller-supplied destination — and requires the
// two to agree: on accept or reject, and on accept on every decoded
// field. The destination is the sample payload's size, so a bit flip
// that grows the data length also exercises the does-not-fit fallback.
func checkLandingAgrees(t testing.TB, frame []byte) {
	t.Helper()
	pooled, perr := transport.ReadResponse(bytes.NewReader(frame))
	dst := make([]byte, 512)
	landed, lerr := transport.ReadResponseInto(bytes.NewReader(frame), dst)
	if (perr == nil) != (lerr == nil) {
		t.Fatalf("decoders disagree on accept: pooled err %v, landing err %v", perr, lerr)
	}
	if perr != nil {
		if perr.Error() != lerr.Error() {
			t.Fatalf("decoders reject differently: pooled %q, landing %q", perr, lerr)
		}
		return
	}
	if pooled.Status != landed.Status || pooled.Handle != landed.Handle || pooled.Size != landed.Size ||
		!bytes.Equal(pooled.Data, landed.Data) || pooled.Err != landed.Err {
		t.Fatalf("decoders disagree on an accepted frame:\npooled  %+v\nlanding %+v", pooled, landed)
	}
	if n := len(landed.Data); n > 0 && n <= len(dst) && &landed.Data[0] != &dst[0] {
		t.Fatalf("a %d-byte payload fits the %d-byte destination but was not landed in it", n, len(dst))
	}
	pooled.Release()
	landed.Release()
}

// The differential check over the Corrupter corpus itself, so it runs on
// every plain `go test`, not only under -fuzz.
func TestLandingDecodeAgreesOnDamagedFrames(t *testing.T) {
	_, frame := sampleFrames(t)
	checkLandingAgrees(t, frame)
	for seed := uint64(0); seed < 256; seed++ {
		c := faultnet.NewCorrupter(seed)
		checkLandingAgrees(t, c.Truncate(append([]byte(nil), frame...)))
		checkLandingAgrees(t, c.BitFlip(append([]byte(nil), frame...)))
	}
}

// Truncated frames must always fail decode: the length prefix promises
// bytes the reader cannot deliver. (Bit flips may decode — they can land
// in payload bytes — so only truncation gets the hard must-error check.)
func TestTruncatedFramesNeverDecode(t *testing.T) {
	reqFrame, respFrame := sampleFrames(t)
	for seed := uint64(0); seed < 256; seed++ {
		c := faultnet.NewCorrupter(seed)
		cut := c.Truncate(append([]byte(nil), reqFrame...))
		if _, err := transport.ReadRequest(bytes.NewReader(cut)); err == nil {
			t.Fatalf("seed %d: truncated request frame (%d of %d bytes) decoded", seed, len(cut), len(reqFrame))
		}
		cut = c.Truncate(append([]byte(nil), respFrame...))
		if _, err := transport.ReadResponse(bytes.NewReader(cut)); err == nil {
			t.Fatalf("seed %d: truncated response frame (%d of %d bytes) decoded", seed, len(cut), len(respFrame))
		}
	}
}
