package main

import (
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// The reference sandbox does not run at one speed. Pure CPU work drifts
// by 10 %, copies by 30 %, and system calls, loopback TCP and wake-ups —
// what this benchmark spends its time in — by 50 %, all together, in
// waves of half a minute to several minutes (README.md has the numbers).
// A window the driver's budget allows sees one phase of a wave, so no
// statistic of the window removes it. The calibrator measures the phase
// instead: a fixed piece of work that shares no code with the program
// under test, timed beside every epoch and every set-up. End-to-end
// times are divided by the factor it yields, so they read as they would
// with the box at its reference speed.

// calibrator times round trips over a loopback TCP pair on plain
// net.Conn: a 64-byte request out, a 64 KiB reply back. That costs the
// box what the benchmark costs it — system calls, wake-ups and copies
// through the kernel — without touching hvac's transport.
type calibrator struct {
	ln    net.Listener
	conn  net.Conn
	req   []byte
	reply []byte
	trips []float64
	echo  sync.WaitGroup // the echo goroutine
}

const (
	calibTrips = 1500
	calibReq   = 64
	calibReply = 64 << 10

	// calibRefSeconds is the round trip the end-to-end metrics are scaled
	// to: what the 2-core reference sandbox takes in its usual phase, so
	// that calibrated and raw values are about equal there.
	calibRefSeconds = 22.5e-6
)

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calibrator{
		ln:  ln,
		req: make([]byte, calibReq), reply: make([]byte, calibReply),
		trips: make([]float64, calibTrips),
	}
	c.echo.Add(1)
	go func() {
		defer c.echo.Done()
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		req, reply := make([]byte, calibReq), make([]byte, calibReply)
		for {
			if _, err := io.ReadFull(peer, req); err != nil {
				return // the calibrator closed its end
			}
			if _, err := peer.Write(reply); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		_ = ln.Close() // unblocks the Accept above
		c.echo.Wait()
		return nil, err
	}
	return c, nil
}

// factor makes calibTrips round trips and returns their median over the
// reference round trip: above 1 when the box is slower than reference.
func (c *calibrator) factor() (float64, error) {
	for i := range c.trips {
		start := time.Now()
		if _, err := c.conn.Write(c.req); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(c.conn, c.reply); err != nil {
			return 0, err
		}
		c.trips[i] = time.Since(start).Seconds()
	}
	slices.Sort(c.trips)
	return c.trips[len(c.trips)/2] / calibRefSeconds, nil
}

// close stops the echo goroutine and waits for it.
func (c *calibrator) close() {
	_ = c.conn.Close() // the echo goroutine's read fails, which ends it
	_ = c.ln.Close()
	c.echo.Wait()
}
