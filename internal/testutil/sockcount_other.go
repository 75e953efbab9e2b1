//go:build !linux

package testutil

func (c *countingTCP) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.read(n)
	return n, err
}
