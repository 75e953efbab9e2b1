// Package transport is the Mercury-equivalent RPC and bulk-transfer layer
// for HVAC's real mode: a compact length-prefixed binary protocol over TCP
// sockets (the paper runs Mercury over InfiniBand; both expose the same two
// primitives — small RPCs and bulk data movement — with the same failure
// surface).
//
// Wire format, little-endian:
//
//	request:  u32 frame | u8 op | u64 handle | u64 off | u64 len | u16 pathLen | path
//	response: u32 frame | u8 status | u64 handle | u64 size | u32 dataLen | data | u16 errLen | err
//
// The frame length counts everything after the length field. Bulk payloads
// ride in the response's data section — except on the local socket, where
// a cached payload of 8 KiB or more leaves as its cache file's descriptor
// (pass.go). A whole read's frame then has bit 31 of dataLen set and a
// data section of u64 off | u64 len, with the descriptor attached to the
// frame as SCM_RIGHTS; the client preads that range into its destination
// and closes the descriptor before Call returns, so the payload never
// crosses the socket. A frame with the bit and no descriptor is corrupt; a
// decoder that knows nothing of the bit rejects the frame as a data length
// overrun. A batch reply's warm entries leave the same way there, each a
// StatusPassed entry naming its range, every descriptor in the frame's one
// control message (batch.go).
//
// The codec is allocation-free on the warm path: frames are encoded into
// pooled buffers (pool.go), a response's payload is written with a
// vectored header+payload+tail write (one writev syscall on a TCP
// connection, zero payload copies) and decoded straight into its
// destination — the caller's own buffer when the Request named one
// (Request.Dst), a pooled buffer of the payload's size otherwise — and
// decoded Responses come from a pool, returned by Response.Release.
//
// One-way closes. OpClose is the one op with no reply: the server runs its
// handler and writes nothing back, so a close costs its caller no round
// trip and no message of its own. The TCP client appends a close's frame
// to its link's close queue and answers the Call at once with an OK
// response; the queue leaves in the same write as the link's next request,
// on whichever pooled connection that request takes, and a small
// per-connection read buffer on the server picks the frames up with it in
// one read. A failed attempt puts the frames back on the queue, a close
// that would take the queue past its bound leaves at once in a write of
// its own, and Client.Close sends what is still queued and waits for the
// server to run it, so only a link that dies loses a close. SimTransport
// runs a close at once.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Op identifies an RPC operation.
type Op uint8

// Protocol operations: the three POSIX calls HVAC forwards (§III-D), Stat
// for probes, Ping for liveness, a batched whole-file read (which, with
// BatchFlagPrefetch, is also the cache pre-population hint of §III-H /
// §IV-C). An op's number is its identity on the wire: a retired op leaves
// a blank in its place, so a peer built with the old numbering gets
// "unknown op" back, never a different op.
const (
	OpOpen Op = iota + 1
	OpRead
	_ // 3: the close when it still had a reply; OpClose is 10
	OpStat
	OpPing
	_ // 6: OpPrefetch, retired; a hint is a prefetch OpReadBatch
	_ // 7: OpReadAt, retired with segment-level caching
	// OpReadBatch is a scatter-gather whole-file read: N paths in, N
	// payloads (or per-entry statuses) out, one RPC round trip for a
	// whole loader batch of small samples. See batch.go for the entry
	// encodings and the frame-budget contract.
	OpReadBatch
	_ // 9: OpPlan, retired with the epoch planner
	// OpClose releases a handle. It is one-way: the server writes no
	// reply (see the package doc).
	OpClose
)

// Status codes. StatusAgain and StatusPassed are only meaningful per
// batch entry: with StatusAgain the server ran out of response frame
// budget and the client should retry that path individually; a
// StatusPassed entry's bytes stay in the file whose descriptor rode the
// frame (pass.go), and the client lands them before Call returns.
const (
	StatusOK uint8 = iota
	StatusError
	StatusAgain
	StatusPassed
)

// MaxFrame bounds a frame to 64 MiB, comfortably above the 16 MiB reads
// the paper profiled from ResNet50's loader (§III-F).
const MaxFrame = 64 << 20

// Fixed-layout byte counts of the two frame kinds.
const (
	reqFixedLen  = 1 + 8 + 8 + 8 + 2 // op..pathLen, after the length field
	respHeadLen  = 4 + 1 + 8 + 8 + 4 // length field through dataLen
	respFixedLen = 1 + 8 + 8 + 4 + 2 // status..errLen, after the length field
)

// ErrFrameTooLarge reports an oversized or corrupt frame.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")

// Request is a client->server message. A Request passed to a Handler is
// only valid for the duration of the call: the server decodes into one
// reused Request per connection. Handlers that need a field beyond the
// call must copy it (string fields are safe to retain — Go strings are
// immutable values).
type Request struct {
	Op     Op
	Handle int64
	Off    int64
	Len    int64
	Path   string

	// Dst is client-side only and never encoded: when set, the response's
	// payload is received straight into it (Response.Data then aliases
	// Dst) instead of a pooled buffer. A payload longer than Dst takes the
	// pooled path and leaves Dst untouched. The caller must not touch Dst
	// until Call returns; the receive is part of the call, so nothing
	// writes into Dst after it. A close has no reply, so nothing lands in
	// its Dst.
	Dst []byte

	// local is server-side only and never encoded: the request came over
	// the local socket, so its reply may carry descriptors (pass.go).
	local bool
}

// Response is a server->client message.
//
// Ownership: a Response obtained from AcquireResponse or ReadResponse —
// and any payload buffer obtained from its Grab — belongs to the caller
// until Release, which recycles both, exactly once. A forgotten Release
// costs the zero-allocation hot path (the GC reclaims the response) and
// shows in OutstandingResponses, which tests hold to its baseline; a
// second one panics. After Release the Response and its Data must not be
// touched — except that a payload received into the caller's own
// Request.Dst stays the caller's: Release recycles only what came from a
// pool, so those bytes remain valid after it. What a handler borrowed
// into the payload (Splice, SetPayloadFile, Pass) goes back to its owner
// with Release too, unless the server connection held it (splice.go).
type Response struct {
	Status uint8
	Handle int64
	Size   int64
	Data   []byte
	Err    string

	pooled   *[]byte // backing payload buffer owned by this response; nil when Data is caller memory
	fromPool bool    // struct came from respPool (AcquireResponse/ReadResponse)
	released bool    // a pooled struct back in respPool: Release panics
	passed   bool    // the payload came as a descriptor (pass.go)

	b *borrowed // payload sections the response does not own (splice.go); nil when none

	// batch is a batch reply's entries, decoded by the client's exchange
	// with its passed entries landed (BatchResults); nil otherwise.
	batch []BatchResult
}

// OK reports whether the response carries no error.
func (r *Response) OK() bool { return r.Status == StatusOK }

// Error converts an error response into a Go error, or nil.
func (r *Response) Error() error {
	if r.Status == StatusOK {
		return nil
	}
	return fmt.Errorf("transport: remote error: %s", r.Err)
}

// Grab returns a pooled buffer of length n owned by the response: it is
// recycled by Release. Handlers use it for payloads (set Data to a prefix
// of it) so a served read allocates nothing.
func (r *Response) Grab(n int) []byte {
	if r.pooled != nil {
		putFrameBuf(r.pooled)
	}
	r.pooled = getFrameBuf(n)
	return (*r.pooled)[:n]
}

// Release recycles the response's pooled payload buffer and, when the
// Response itself came from AcquireResponse/ReadResponse, the struct too.
// Calling Release on a literal Response is safe, and so is calling it
// again. Releasing a pooled Response twice panics, as a sync.WaitGroup
// going negative does: the struct may already be another caller's. The
// Response and any buffer from its Grab must not be used afterwards.
func (r *Response) Release() {
	if r.released {
		panic("transport: pooled Response released twice")
	}
	if r.pooled != nil {
		putFrameBuf(r.pooled)
		r.pooled = nil
	}
	if r.b != nil {
		r.b.release()
		r.b = nil
	}
	if r.fromPool {
		*r = Response{released: true}
		outstanding.Add(-1)
		respPool.Put(r)
		return
	}
	r.Data, r.batch = nil, nil
}

// WriteRequest encodes req onto w using a pooled scratch frame.
func WriteRequest(w io.Writer, req *Request) error {
	if err := checkPath(req); err != nil {
		return err
	}
	p := getFrameBuf(4 + reqFixedLen + len(req.Path))
	_, err := w.Write(appendRequest((*p)[:0], req))
	putFrameBuf(p)
	return err
}

// checkPath refuses a request whose path overflows its u16 length field.
func checkPath(req *Request) error {
	if len(req.Path) > 1<<16-1 {
		return fmt.Errorf("transport: path too long (%d bytes)", len(req.Path))
	}
	return nil
}

// appendRequest appends req's frame to b. The caller has checked the path
// (checkPath).
func appendRequest(b []byte, req *Request) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(reqFixedLen+len(req.Path)))
	b = append(b, byte(req.Op))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Handle))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Off))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Len))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(req.Path)))
	return append(b, req.Path...)
}

// ReadRequestInto decodes one request from r into *req, overwriting every
// field. The decode scratch is pooled, so a server connection loop that
// reuses one Request allocates only the path string per call.
func ReadRequestInto(r io.Reader, req *Request) error {
	// The length prefix is read into a pooled scratch, not a stack array:
	// a [4]byte passed through the io.Reader interface escapes, which
	// would cost one heap allocation per decode.
	lp := getFrameBuf(4)
	_, err := io.ReadFull(r, (*lp)[:4])
	frame := binary.LittleEndian.Uint32((*lp)[:4])
	putFrameBuf(lp)
	if err != nil {
		return err
	}
	if frame > MaxFrame || frame < reqFixedLen {
		return ErrFrameTooLarge
	}
	p := getFrameBuf(int(frame))
	buf := (*p)[:frame]
	if _, err := io.ReadFull(r, buf); err != nil {
		putFrameBuf(p)
		return err
	}
	req.Op = Op(buf[0])
	req.Handle = int64(binary.LittleEndian.Uint64(buf[1:]))
	req.Off = int64(binary.LittleEndian.Uint64(buf[9:]))
	req.Len = int64(binary.LittleEndian.Uint64(buf[17:]))
	pathLen := int(binary.LittleEndian.Uint16(buf[25:]))
	if 27+pathLen > len(buf) {
		putFrameBuf(p)
		return fmt.Errorf("transport: corrupt request: path length %d overruns frame", pathLen)
	}
	req.Path = string(buf[27 : 27+pathLen])
	req.Dst = nil
	putFrameBuf(p)
	return nil
}

// ReadRequest decodes one request from r.
func ReadRequest(r io.Reader) (*Request, error) {
	req := new(Request)
	if err := ReadRequestInto(r, req); err != nil {
		return nil, err
	}
	return req, nil
}

// WriteResponse encodes resp onto w. The header and tail are built in one
// pooled scratch buffer; when a payload is present the three sections —
// the payload as Data's runs and the borrowed memory between them
// (Splice) — go out as a vectored write (net.Buffers), which a TCP
// connection turns into a single writev with no payload copy. A reply
// with passed files (pass.go) or a file range (zerocopy.go) writes the
// same frame through w's zcWriter.
func WriteResponse(w io.Writer, resp *Response) error {
	if len(resp.Err) > 1<<16-1 {
		return fmt.Errorf("transport: error string too long")
	}
	dataLen := resp.payloadLen()
	if dataLen < 0 || respFixedLen+dataLen+len(resp.Err) > MaxFrame {
		return ErrFrameTooLarge
	}
	p := getFrameBuf(respHeadLen + 2 + len(resp.Err))
	ht := appendRespHead((*p)[:0], resp, dataLen)
	split := len(ht)
	ht = appendRespTail(ht, resp.Err)

	var err error
	switch {
	case resp.passedFiles() > 0:
		err = writePassed(w, ht[:split], resp, ht[split:])
	case resp.FilePayload():
		err = writeFileResponse(w, ht[:split], resp, ht[split:])
	case dataLen == 0:
		// Header and tail are contiguous in the scratch: one plain write.
		_, err = w.Write(ht)
	default:
		err = writeVectored(w, ht[:split], resp.Data, resp.b, ht[split:])
	}
	putFrameBuf(p)
	return err
}

// appendRespHead appends the head of resp's frame, length field through
// dataLen, for a payload of dataLen bytes; the payload and then
// appendRespTail's bytes follow it.
func appendRespHead(b []byte, resp *Response, dataLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(respFixedLen+dataLen+len(resp.Err)))
	b = append(b, resp.Status)
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Handle))
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Size))
	return binary.LittleEndian.AppendUint32(b, uint32(dataLen))
}

// appendRespTail appends a response frame's tail: the error string and
// its u16 length. The caller has checked that msg fits.
func appendRespTail(b []byte, msg string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

// ReadResponse decodes one response from r. The returned Response is
// pooled and its Data aliases a pooled buffer of the payload's size: call
// Release once the payload has been consumed (or keep the Response and
// let the GC reclaim it — correct, but off the zero-allocation path).
func ReadResponse(r io.Reader) (*Response, error) {
	return readResponse(r, nil, nil)
}

// readResponse is the one response decoder: the fixed head into a small
// pooled scratch, the payload straight into its destination — dst when
// the payload fits it, else a pooled buffer of exactly dataLen, so a
// power-of-two payload stays in its own size class — then the tail
// (error length, error string) into the scratch again. The payload is
// never staged in a whole-frame buffer, so a landed read costs one
// userspace copy per byte: socket to dst. A descriptor frame (pass.go)
// is read from the descriptor rx received with it, into the same
// destination; without rx it is a corrupt frame.
func readResponse(r io.Reader, dst []byte, rx *passRx) (*Response, error) {
	// Pooled scratch, not a stack array: an array passed through the
	// io.Reader interface escapes, which would cost one heap allocation
	// per decode.
	sp := getFrameBuf(respHeadLen)
	defer func() { putFrameBuf(sp) }()
	head := (*sp)[:respHeadLen]
	// The length prefix is checked as soon as it is in; the rest of the
	// head usually arrives with it, and every valid frame is at least
	// respHeadLen bytes long, so reading on never crosses into the next
	// frame.
	n, err := io.ReadAtLeast(r, head, 4)
	if err != nil {
		return nil, err
	}
	frame := binary.LittleEndian.Uint32(head)
	if frame > MaxFrame || frame < respFixedLen {
		return nil, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, head[n:]); err != nil {
		return nil, err
	}
	// Checked in the wire's own width, so dataLen is at most MaxFrame
	// before it sizes or slices anything.
	dl := binary.LittleEndian.Uint32(head[21:])
	passed := dl&passFlag != 0 && dl&^passFlag == passLen
	if passed {
		dl = passLen
	}
	if dl > frame-respFixedLen {
		return nil, fmt.Errorf("transport: corrupt response: data length %d overruns frame", dl)
	}
	dataLen := int(dl)
	resp := AcquireResponse()
	resp.Status = head[4]
	resp.Handle = int64(binary.LittleEndian.Uint64(head[5:]))
	resp.Size = int64(binary.LittleEndian.Uint64(head[13:]))
	if passed {
		if err := readPassedPayload(r, (*sp)[:passLen], dst, rx, resp); err != nil {
			resp.Release()
			return nil, err
		}
	} else if dataLen > 0 {
		data := dst
		if dataLen > len(dst) {
			resp.pooled = getFrameBuf(dataLen)
			data = *resp.pooled
		}
		data = data[:dataLen:dataLen]
		if _, err := io.ReadFull(r, data); err != nil {
			resp.Release()
			return nil, err
		}
		resp.Data = data
	}
	// What the frame holds after the payload: the u16 error length, the
	// error string, and any slack the sender left (at least 2 bytes, by
	// the data-length check above).
	tailLen := int(frame) - (respFixedLen - 2) - dataLen
	if tailLen > cap(*sp) {
		putFrameBuf(sp)
		sp = getFrameBuf(tailLen)
	}
	tail := (*sp)[:tailLen]
	if _, err := io.ReadFull(r, tail); err != nil {
		resp.Release()
		return nil, err
	}
	errLen := int(binary.LittleEndian.Uint16(tail))
	if 2+errLen > tailLen {
		resp.Release()
		return nil, fmt.Errorf("transport: corrupt response: error length %d overruns frame", errLen)
	}
	if errLen > 0 {
		resp.Err = string(tail[2 : 2+errLen])
	}
	return resp, nil
}

// readPassedPayload reads a descriptor frame's range into sec, then the
// range itself from the descriptor rx holds, into dst when it fits and a
// pooled buffer otherwise, as a payload off the socket would land.
func readPassedPayload(r io.Reader, sec, dst []byte, rx *passRx, resp *Response) error {
	if _, err := io.ReadFull(r, sec); err != nil {
		return err
	}
	off := binary.LittleEndian.Uint64(sec)
	n := binary.LittleEndian.Uint64(sec[8:])
	if off > math.MaxInt64-MaxFrame || n > MaxFrame {
		return fmt.Errorf("transport: corrupt response: passed range %d+%d out of bounds", off, n)
	}
	data := dst
	if int(n) > len(dst) {
		resp.pooled = getFrameBuf(int(n))
		data = *resp.pooled
	}
	data = data[:n:n]
	if err := rx.readPassed(data, int64(off)); err != nil {
		return err
	}
	if n > 0 {
		resp.Data = data
	}
	resp.passed = true
	return nil
}
