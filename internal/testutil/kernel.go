package testutil

// Counts is what the kernel has counted for this process: read-class and
// write-class system calls and the bytes through them, and voluntary
// context switches. They are exact where wall time drifts, so a test can
// hold a path to a budget of calls and bytes per operation. They count
// every thread of the process: a test that reads them must not run in
// parallel with another.
type Counts struct {
	ReadCalls, WriteCalls int64 // syscr, syscw: read(2)-like and write(2)-like calls
	ReadBytes, WriteBytes int64 // rchar, wchar: bytes through those calls
	VolSwitches           int64 // voluntary context switches (getrusage)
}

// Sub returns the counts accrued between since and c.
func (c Counts) Sub(since Counts) Counts {
	return Counts{
		ReadCalls:   c.ReadCalls - since.ReadCalls,
		WriteCalls:  c.WriteCalls - since.WriteCalls,
		ReadBytes:   c.ReadBytes - since.ReadBytes,
		WriteBytes:  c.WriteBytes - since.WriteBytes,
		VolSwitches: c.VolSwitches - since.VolSwitches,
	}
}
