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
// ride in the response's data section.
//
// The codec is allocation-free on the warm path: frames are encoded into
// pooled buffers (pool.go), a response's payload is written with a
// vectored header+payload+tail write (one writev syscall on a TCP
// connection, zero payload copies) and decoded straight into its
// destination — the caller's own buffer when the Request named one
// (Request.Dst), a pooled buffer of the payload's size otherwise — and
// decoded Responses come from a pool, returned by Response.Release.
//
// Deferred requests and coalesced replies. A request marked Request.Defer
// (the client's OpClose) costs its caller no round trip and changes
// nothing on the wire: the TCP client encodes its frame onto an idle
// pooled connection and answers the Call at once with an OK response. The
// frame leaves in the same write as that connection's next request, and
// that request's Call reads the deferred replies, discards them, then
// reads its own; a small per-connection read buffer picks them all up in
// one read. A failed attempt hands the frames on to its retry, and
// Client.Close sends what is still queued, so only a link that dies loses
// them. SimTransport runs a deferred request at once. The server, for its
// part, may hold a reply that carries no payload, but only while the
// peer's next request frame is already whole in its read buffer; the held
// replies then go out in the same write as the next reply. So a close
// rides between two requests that were going to cross the wire anyway: no
// message of its own in either direction.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Op identifies an RPC operation.
type Op uint8

// Protocol operations: the three POSIX calls HVAC forwards (§III-D), Stat
// for probes, Ping for liveness, and Prefetch — the paper's future-work
// cache pre-population (§III-H / §IV-C) that hides the first-epoch copy.
const (
	OpOpen Op = iota + 1
	OpRead
	OpClose
	OpStat
	OpPing
	OpPrefetch
	// OpReadAt is a stateless ranged read used by segment-level caching
	// (§III-E mentions HFetch-style segment caching as the fix for
	// datasets with highly skewed file sizes): the byte range names the
	// segment; no server-side handle exists.
	OpReadAt
	// OpReadBatch is a scatter-gather whole-file read: N paths in, N
	// payloads (or per-entry statuses) out, one RPC round trip for a
	// whole loader batch of small samples. See batch.go for the entry
	// encodings and the frame-budget contract.
	OpReadBatch
	// OpPlan installs one chunk of a clairvoyant epoch plan on a server:
	// Path carries a batch-encoded key list in access order (the same
	// encoding as OpReadBatch requests), Handle is the plan generation,
	// Off is the chunk's start index within the plan (0 replaces any
	// previous plan, later chunks must append in order), and Len is the
	// prefetch horizon in plan entries (0 = server default). The plan
	// drives the server's plan pump and Belady eviction scoring; it is
	// advisory — losing it only costs prefetch accuracy, never bytes.
	OpPlan
)

// Status codes. StatusAgain is only meaningful per batch entry: the
// server ran out of response frame budget and the client should retry
// that path individually.
const (
	StatusOK uint8 = iota
	StatusError
	StatusAgain
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
	// until Call returns, and must not set it on a request whose attempts
	// can outlive the call (a hedged rung that lost the race).
	Dst []byte

	// Defer is client-side only and never encoded: the caller needs no
	// answer but success (an OpClose), so Call may answer OK before the
	// request is sent, and a link that dies first loses it (see the
	// package doc). A deferred request may not set Dst.
	Defer bool
}

// errDeferDst refuses a deferred request that names a destination: its
// reply is read by a later call, long after the caller has moved on.
var errDeferDst = errors.New("transport: a deferred request cannot carry Dst")

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
// pool, so those bytes remain valid after it.
type Response struct {
	Status uint8
	Handle int64
	Size   int64
	Data   []byte
	Err    string

	pooled   *[]byte // backing payload buffer owned by this response; nil when Data is caller memory
	fromPool bool    // struct came from respPool (AcquireResponse/ReadResponse)
	released bool    // a pooled struct back in respPool: Release panics

	// fd-backed payload (zerocopy.go): when srcFile is set the payload is
	// srcLen bytes of srcFile at srcOff, Data stays nil, and srcRel is
	// released with the response. srcStats receives the serve accounting.
	srcFile  *os.File
	srcOff   int64
	srcLen   int64
	srcRel   PayloadReleaser
	srcStats *ZeroCopyStats
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
	if r.srcRel != nil || r.srcFile != nil {
		r.releaseSrc()
	}
	if r.fromPool {
		*r = Response{released: true}
		outstanding.Add(-1)
		respPool.Put(r)
		return
	}
	r.Data = nil
}

// WriteRequest encodes req onto w using a pooled scratch frame.
func WriteRequest(w io.Writer, req *Request) error {
	return writeRequest(w, nil, req)
}

// writeRequest is WriteRequest behind pre, already-encoded request frames
// that leave in the same write, ahead of req.
func writeRequest(w io.Writer, pre []byte, req *Request) error {
	if len(req.Path) > 1<<16-1 {
		return fmt.Errorf("transport: path too long (%d bytes)", len(req.Path))
	}
	p := getFrameBuf(len(pre) + 4 + reqFixedLen + len(req.Path))
	buf := appendRequest(append((*p)[:0], pre...), req)
	_, err := w.Write(buf)
	putFrameBuf(p)
	return err
}

// appendRequest appends req's frame to b. The caller has checked that
// the path fits its u16 length field.
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
// pooled scratch buffer; when a payload is present the three sections go
// out as a vectored write (net.Buffers), which a TCP connection turns
// into a single writev with no payload copy.
func WriteResponse(w io.Writer, resp *Response) error {
	return writeResponse(w, resp, nil)
}

// writeResponse is WriteResponse behind pre, encoded replies the server
// held back, which leave in the same write, ahead of resp: pre is copied
// in front of the head, so the write is still one plain write or one
// writev.
func writeResponse(w io.Writer, resp *Response, pre []byte) error {
	if resp.srcFile != nil {
		// fd-backed payload: same frame on the wire, but the payload can
		// leave via sendfile when w supports it (zerocopy.go).
		return writeFileResponse(w, resp, pre)
	}
	if len(resp.Err) > 1<<16-1 {
		return fmt.Errorf("transport: error string too long")
	}
	if respFixedLen+len(resp.Data)+len(resp.Err) > MaxFrame {
		return ErrFrameTooLarge
	}
	p := getFrameBuf(len(pre) + respHeadLen + 2 + len(resp.Err))
	ht := appendRespHead(append((*p)[:0], pre...), resp, len(resp.Data))
	split := len(ht)
	ht = appendRespTail(ht, resp.Err)

	var err error
	if len(resp.Data) == 0 {
		// Header and tail are contiguous in the scratch: one plain write.
		_, err = w.Write(ht)
	} else {
		v := respVecPool.Get().(*respVec)
		v.arr = [3][]byte{ht[:split], resp.Data, ht[split:]}
		v.bufs = v.arr[:]
		_, err = v.bufs.WriteTo(w)
		v.arr = [3][]byte{} // drop payload references before pooling
		respVecPool.Put(v)
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
	return readResponse(r, nil)
}

// readResponse is the one response decoder: the fixed head into a small
// pooled scratch, the payload straight into its destination — dst when
// the payload fits it, else a pooled buffer of exactly dataLen, so a
// power-of-two payload stays in its own size class — then the tail
// (error length, error string) into the scratch again. The payload is
// never staged in a whole-frame buffer, so a landed read costs one
// userspace copy per byte: socket to dst.
func readResponse(r io.Reader, dst []byte) (*Response, error) {
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
	if dl > frame-respFixedLen {
		return nil, fmt.Errorf("transport: corrupt response: data length %d overruns frame", dl)
	}
	dataLen := int(dl)
	resp := AcquireResponse()
	resp.Status = head[4]
	resp.Handle = int64(binary.LittleEndian.Uint64(head[5:]))
	resp.Size = int64(binary.LittleEndian.Uint64(head[13:]))
	if dataLen > 0 {
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
