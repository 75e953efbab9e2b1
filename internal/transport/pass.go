package transport

import "errors"

// The descriptor plane (DESIGN.md §4.3). On the local socket a file
// payload of at least descMin bytes does not cross the socket at all: the
// reply is one frame whose payload section is the range, u64 off | u64
// len, and the cache file's descriptor rides that frame as SCM_RIGHTS
// ancillary data. The client's decoder preads the range straight into its
// destination and closes the descriptor before Call returns, so the bytes
// are copied once, by the client, out of the page cache.
//
// The frame is marked by bit 31 of the u32 dataLen. A real dataLen is at
// most MaxFrame (2^26), so the bit is otherwise never set, and a decoder
// that knows nothing of descriptors fails the frame's "data length
// overruns frame" check instead of misreading it. A marked frame without
// a descriptor — a TCP connection, a reader that used read(2) (which
// drops ancillary data), or a receiver out of descriptors (MSG_CTRUNC) —
// is a corrupt frame: the connection closes and the retry ladder runs.
//
// Only a request that asks for descMin bytes or more can be answered this
// way (mayPass), and the client receives with recvmsg(2) only for such an
// exchange, so every other exchange keeps its read(2)s. The server holds
// the lease behind a passed descriptor as it holds a sendfile one, until
// the peer's next request on the connection: the client preads inside the
// exchange, before the connection can carry another request, so a cache
// file recycled in place never changes under a pread.
const (
	// descMin is the shortest payload passed as a descriptor. From it
	// up the reply outgrows the unix socket's default send buffer, and
	// the descriptor won in every sweep; below it the plane would take
	// the small-file workloads, and put their exchanges on recvmsg,
	// which /proc/self/io does not count (DESIGN.md §4.3).
	descMin = 256 << 10

	passFlag = 1 << 31 // dataLen bit marking a descriptor frame
	passLen  = 16      // the payload section of one: u64 off | u64 len
)

// errNoDescriptor fails a descriptor frame that arrived without one.
var errNoDescriptor = errors.New("transport: corrupt response: descriptor frame without a descriptor")

// mayPass reports whether req's reply may come as a descriptor frame: the
// one rule both ends apply, the server before it passes a descriptor and
// the client before it receives with recvmsg.
func mayPass(req *Request) bool { return req.Len >= descMin }

// Passed reports whether the response's payload came as a descriptor and
// was read from the file by this process, not from the socket.
func (r *Response) Passed() bool { return r.passed }
