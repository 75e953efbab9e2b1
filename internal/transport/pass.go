package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
)

// The descriptor plane (DESIGN.md §4.3). On the local socket a payload
// that lives in a file can leave as the file's descriptor instead of its
// bytes: the frame names the range, u64 off | u64 len, and the descriptor
// rides the frame's first bytes as SCM_RIGHTS ancillary data. The client
// preads the range straight into its destination and closes the
// descriptor before Call returns, so the bytes are copied once, by the
// client, out of the page cache. One rule decides it for every reply:
// a resident payload of passMin bytes or more that the server offers to
// Pass leaves this way, up to passCap per reply. Only the mark differs:
//
//   - a whole read's frame is marked by bit 31 of the u32 dataLen, and
//     its payload section is the range. A real dataLen is at most
//     MaxFrame (2^26), so the bit is otherwise never set, and a decoder
//     that knows nothing of descriptors fails the frame's "data length
//     overruns frame" check instead of misreading it;
//   - a batch entry is marked by StatusPassed and its body is the range,
//     and every descriptor rides the reply's one control message, in
//     entry order. Entries below the floor or past the cap, and misses
//     served from fills, keep their bytes in the same frame.
//
// A marked frame or entry without its descriptor — a TCP connection, a
// reader that used read(2) (which drops ancillary data), or a receiver
// out of descriptors (MSG_CTRUNC) — is a corrupt frame: the connection
// closes and the retry ladder runs.
//
// Only a request mayPass names can be answered this way, and the client
// receives with recvmsg(2) only for such an exchange, so every other
// exchange keeps its read(2)s. The server holds the leases behind passed
// descriptors as it holds a sendfile one, until the peer's next request
// on the connection: the client preads inside the exchange, before the
// connection can carry another request, so a cache file recycled in place
// never changes under a pread.
const (
	// passMin is the shortest payload passed as a descriptor, a whole
	// read or a batch entry. Through the codec, 16-entry batch replies of
	// descriptors and their preads beat the entries' bytes by 14–21 % at
	// 8 KiB and did not win at 4 KiB, where installing and closing a
	// descriptor costs what the copy it saves does; a single read by
	// descriptor is level with a mapped writev at 8 KiB and ahead from
	// 16 KiB, by 28–30 % at 64 KiB (DESIGN.md §4.3).
	passMin = 8 << 10

	// passCap is the most descriptors one reply carries: the kernel's
	// SCM_MAX_FD, the most one SCM_RIGHTS message may hold.
	passCap = 253

	passFlag = 1 << 31 // dataLen bit marking a whole read's descriptor frame
	passLen  = 16      // the range a passed payload names: u64 off | u64 len
)

// errNoDescriptor fails a descriptor frame or entry that arrived without
// its descriptor.
var errNoDescriptor = errors.New("transport: corrupt response: descriptor frame without a descriptor")

// mayPass reports whether req's reply may carry descriptors: the one rule
// both ends apply, the server before it passes one and the client before
// it receives with recvmsg.
func mayPass(req *Request) bool {
	return req.Len >= passMin || req.Op == OpReadBatch && req.Handle&BatchFlagPrefetch == 0
}

// passEntry reports whether a payload of n bytes leaves as a descriptor,
// when passed payloads of req's reply have already done so: on the local
// socket, from the floor, up to the cap.
func passEntry(req *Request, n int64, passed int) bool {
	return req.local && mayPass(req) && n >= passMin && passed < passCap
}

// Passed reports whether the response's payload came as a descriptor and
// was read from the file by this process, not from the socket.
func (r *Response) Passed() bool { return r.passed }

// Pass offers n bytes of f at off as the payload that ends r: for a batch
// read, the entry that ends r.Data, appended with AppendBatchEntry(r.Data,
// StatusOK, nil); for a whole read, the response's payload, with Data
// still nil. When req's reply may carry it (passEntry) the payload becomes
// the range, f's descriptor rides the reply, and Pass reports true; else
// it reports false and changes nothing, and the caller serves the bytes.
// rel is released once the peer has read the frame, or with r if it is
// never written; f must stay open until then.
func (r *Response) Pass(req *Request, f *os.File, off, n int64, rel PayloadReleaser) bool {
	whole := req.Op != OpReadBatch
	if whole && r.Data != nil || !whole && len(r.Data) < BatchEntryOverhead || !passEntry(req, n, r.passedFiles()) {
		return false
	}
	if whole {
		r.Data = r.Grab(passLen)[:0]
	} else {
		PutBatchEntryHead(r.Data[len(r.Data)-BatchEntryOverhead:], StatusPassed, passLen)
	}
	r.Data = binary.LittleEndian.AppendUint64(r.Data, uint64(off))
	r.Data = binary.LittleEndian.AppendUint64(r.Data, uint64(n))
	b := r.borrow(section{f: f, rel: rel})
	b.passed++
	b.whole = whole
	return true
}

// passedFiles reports how many descriptors the reply carries.
func (r *Response) passedFiles() int {
	if r.b == nil {
		return 0
	}
	return r.b.passed
}

// writePassed writes a reply with passed payloads — head, then Data with
// its memory sections, then tail, the frame writeVectored would write,
// with a whole read's dataLen, the last field of head, marked — as one
// message with every passed file's descriptor attached to its first byte.
// Only a connection that may carry them takes it: any other writer fails
// the reply, as a frame promising descriptors it could not carry would be
// corrupt.
func writePassed(w io.Writer, head []byte, resp *Response, tail []byte) error {
	zw, ok := w.(*zcWriter)
	if !ok || !zw.canPass() {
		return errNoDescriptor
	}
	if resp.b.whole {
		binary.LittleEndian.PutUint32(head[len(head)-4:], passLen|passFlag)
	}
	v := respVecPool.Get().(*respVec)
	v.arr = appendSections(v.arr[:0], head, resp.Data, resp.b, tail)
	for _, s := range resp.b.secs {
		if s.f != nil {
			v.files = append(v.files, s.f)
		}
	}
	err := zw.passFrame(v.arr, v.files)
	clear(v.arr) // drop payload and file references before pooling
	clear(v.files)
	v.files = v.files[:0]
	respVecPool.Put(v)
	return err
}
