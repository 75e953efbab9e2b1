package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// OpReadBatch wire format (the FanStore observation: per-file RPC
// overhead dominates small-sample workloads, so file access must be
// batched and compacted). A batch request and its response ride inside
// the ordinary request/response frames:
//
//	request:  the Path field carries the encoded path list
//	          u16 count | count x (u16 pathLen | path)
//	          and the Handle field carries BatchFlag* bits.
//	response: the Data section carries the encoded result list
//	          count x (u8 status | u32 len | len bytes)
//	          where the bytes are the payload for StatusOK, an error
//	          message for StatusError, and empty for StatusAgain.
//	          Response.Size echoes the entry count.
//
// StatusAgain marks an entry the server skipped because the response
// frame budget was exhausted (scatter-gather replies must stay under
// MaxFrame); the client retries those paths individually. Per-entry
// failures therefore never fail the batch: each path degrades on its
// own, which is what the chaos tier asserts.

// BatchFlagPrefetch asks the server to schedule background fills for the
// batch instead of returning payloads: the response carries per-entry
// statuses with empty bodies. Set on Request.Handle (unused otherwise by
// OpReadBatch).
const BatchFlagPrefetch int64 = 1

// MaxBatchEntries bounds the paths in one batch request. The encoded
// path list must also fit the request Path field (u16 length prefix,
// 64 KiB), which EncodeBatchPaths enforces.
const MaxBatchEntries = 512

// BatchEntryOverhead is the per-entry framing cost in the response data
// section: one status byte plus the u32 payload length.
const BatchEntryOverhead = 1 + 4

// BatchResponseBudget is the payload budget a server packs one batch
// response to: MaxFrame less headroom for the frame header, the per-entry
// framing and the error tail. Entries that do not fit are answered
// StatusAgain and re-fetched individually by the client.
const BatchResponseBudget = MaxFrame - (64 << 10)

// EncodeBatchPaths packs paths into the request Path field. It fails on
// empty batches, batches over MaxBatchEntries, and encodings that would
// overflow the u16 path-length prefix of the request frame.
func EncodeBatchPaths(paths []string) (string, error) {
	if len(paths) == 0 {
		return "", fmt.Errorf("transport: empty batch")
	}
	if len(paths) > MaxBatchEntries {
		return "", fmt.Errorf("transport: batch of %d exceeds %d entries", len(paths), MaxBatchEntries)
	}
	total := 2
	for _, p := range paths {
		if len(p) > 1<<16-1 {
			return "", fmt.Errorf("transport: batch path too long (%d bytes)", len(p))
		}
		total += 2 + len(p)
	}
	if total > 1<<16-1 {
		return "", fmt.Errorf("transport: encoded batch (%d bytes) exceeds the path field", total)
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint16(buf, uint16(len(paths)))
	off := 2
	for _, p := range paths {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(p)))
		off += 2
		off += copy(buf[off:], p)
	}
	return string(buf), nil
}

// DecodeBatchPaths unpacks a batch request's path list. Every decoded
// length is bounds-checked against the remaining blob before use — the
// blob arrived off the wire, so a corrupt count or entry length must
// surface as an error, never as an oversized slice.
func DecodeBatchPaths(blob string) ([]string, error) {
	if len(blob) < 2 {
		return nil, fmt.Errorf("transport: batch request truncated (%d bytes)", len(blob))
	}
	count := int(binary.LittleEndian.Uint16([]byte(blob[:2])))
	if count == 0 || count > MaxBatchEntries {
		return nil, fmt.Errorf("transport: batch count %d out of range", count)
	}
	paths := make([]string, 0, count)
	off := 2
	for i := 0; i < count; i++ {
		if off+2 > len(blob) {
			return nil, fmt.Errorf("transport: batch entry %d overruns the request", i)
		}
		n := int(binary.LittleEndian.Uint16([]byte(blob[off : off+2])))
		off += 2
		if off+n > len(blob) {
			return nil, fmt.Errorf("transport: batch entry %d length %d overruns the request", i, n)
		}
		paths = append(paths, blob[off:off+n])
		off += n
	}
	if off != len(blob) {
		return nil, fmt.Errorf("transport: %d trailing bytes after batch entry %d", len(blob)-off, count-1)
	}
	return paths, nil
}

// BatchResult is one entry of a decoded batch response.
type BatchResult struct {
	// Status is StatusOK, StatusError, or StatusAgain.
	Status uint8
	// Data is the payload for StatusOK entries. It aliases the response
	// frame: consume or copy it before Response.Release.
	Data []byte
	// Err carries the server's message for StatusError entries.
	Err string
}

// OK reports whether the entry carries a payload.
func (r *BatchResult) OK() bool { return r.Status == StatusOK }

// AppendBatchEntry appends one encoded result entry to buf and returns
// the extended slice. Servers build the response data section with it.
func AppendBatchEntry(buf []byte, status uint8, body []byte) []byte {
	var hdr [BatchEntryOverhead]byte
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(body)))
	buf = append(buf, hdr[:]...)
	return append(buf, body...)
}

// ReserveBatchEntry appends a StatusOK entry whose n-byte body the caller
// fills in place — a pread straight into the frame instead of a staged
// copy through AppendBatchEntry. It returns the extended slice and the
// body. A caller whose fill comes back short or failed truncates to the
// previous length and appends the entry it ended up with.
func ReserveBatchEntry(buf []byte, n int) (ext, body []byte) {
	start := len(buf)
	ext = slices.Grow(buf, BatchEntryOverhead+n)[:start+BatchEntryOverhead+n]
	ext[start] = StatusOK
	binary.LittleEndian.PutUint32(ext[start+1:], uint32(n))
	return ext, ext[start+BatchEntryOverhead:]
}

// DecodeBatchResults unpacks a batch response's data section into want
// entries. Entry lengths come off the wire and are bounds-checked against
// the remaining data before any slice is taken.
func DecodeBatchResults(data []byte, want int) ([]BatchResult, error) {
	if want <= 0 || want > MaxBatchEntries {
		return nil, fmt.Errorf("transport: batch result count %d out of range", want)
	}
	out := make([]BatchResult, 0, want)
	off := 0
	for i := 0; i < want; i++ {
		if off+BatchEntryOverhead > len(data) {
			return nil, fmt.Errorf("transport: batch result %d overruns the response", i)
		}
		status := data[off]
		n := int(binary.LittleEndian.Uint32(data[off+1 : off+BatchEntryOverhead]))
		off += BatchEntryOverhead
		if n < 0 || off+n > len(data) {
			return nil, fmt.Errorf("transport: batch result %d length %d overruns the response", i, n)
		}
		r := BatchResult{Status: status}
		switch status {
		case StatusOK:
			r.Data = data[off : off+n : off+n]
		case StatusError:
			r.Err = string(data[off : off+n])
		case StatusAgain:
			// No body: the client re-reads the path individually.
		default:
			return nil, fmt.Errorf("transport: batch result %d has unknown status %d", i, status)
		}
		off += n
		out = append(out, r)
	}
	if off != len(data) {
		return nil, fmt.Errorf("transport: %d trailing bytes after batch result %d", len(data)-off, want-1)
	}
	return out, nil
}
