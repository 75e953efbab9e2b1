package transport

import (
	"testing"
	"testing/quick"
	"time"

	"hvac/internal/testutil"
)

// Property: the backoff schedule is deterministic for a fixed seed, every
// pause is positive and capped by MaxDelay, and the schedule never
// exceeds the attempt bound.
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	f := func(seed uint64, rawAttempts uint8, baseMs, maxMs uint16) bool {
		p := RetryPolicy{
			MaxAttempts: int(rawAttempts%8) + 1,
			BaseDelay:   time.Duration(baseMs) * time.Millisecond,
			MaxDelay:    time.Duration(maxMs) * time.Millisecond,
			Seed:        seed,
		}
		q := p // identical policy, fresh value: must sleep identically
		norm := p.withDefaults()
		var total1, total2 time.Duration
		for retry := 1; retry < norm.MaxAttempts; retry++ {
			d1, d2 := p.Backoff(retry), q.Backoff(retry)
			if d1 != d2 {
				return false // not deterministic
			}
			if d1 <= 0 || d1 > norm.MaxDelay {
				return false // out of bounds
			}
			total1 += d1
			total2 += d2
		}
		return total1 == total2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any attempt budget, Call gives up after exactly
// MaxAttempts tries and sleeps exactly the policy's backoff schedule —
// the total stall of a failed call is deterministic for a fixed seed.
func TestCallHonoursAttemptBudget(t *testing.T) {
	checkResponses(t)
	f := func(seed uint64, rawAttempts uint8) bool {
		policy := RetryPolicy{
			MaxAttempts: int(rawAttempts%5) + 1,
			BaseDelay:   time.Nanosecond, // schedule shape matters, not wall time
			MaxDelay:    time.Microsecond,
			Seed:        seed,
		}
		// 127.0.0.1:1 is reserved (discard) and refuses immediately.
		cli := DialWith("127.0.0.1:1", ClientOptions{DialTimeout: time.Second, Retry: policy})
		defer cli.Close()
		var sleeps []time.Duration
		cli.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
		if _, err := cli.Call(&Request{Op: OpPing}); err == nil {
			return false // there is no server; the call must fail
		}
		norm := policy.withDefaults()
		if len(sleeps) != norm.MaxAttempts-1 {
			return false // attempt bound violated
		}
		if cli.Retries() != int64(norm.MaxAttempts-1) {
			return false // retry budget accounting off
		}
		for i, d := range sleeps {
			if d != norm.Backoff(i+1) {
				return false // slept off-schedule
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the unbounded-call hazard: a deliberately hung handler
// must fail the call within the per-call deadline instead of blocking the
// training loop forever.
func TestCallTimeoutOnHungHandler(t *testing.T) {
	checkResponses(t)
	testutil.CheckLeaks(t)
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		if req.Op == OpRead {
			<-release // hang until the test lets go
		}
		return &Response{Status: StatusOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	defer close(release) // unblock the handler before srv.Close waits on it

	cli := DialWith(srv.Addr(), ClientOptions{
		CallTimeout: 50 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 1},
	})
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	start := time.Now()
	_, err = cli.Call(&Request{Op: OpRead, Len: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a hung handler succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hung call took %v; the deadline did not fire", elapsed)
	}
}

// A timed-out connection must not be reused: the stale response would be
// delivered to the next call.
func TestTimedOutConnNotPooled(t *testing.T) {
	checkResponses(t)
	testutil.CheckLeaks(t)
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		if req.Op == OpRead {
			<-release
		}
		return &Response{Status: StatusOK, Handle: req.Handle}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	defer close(release)

	cli := DialWith(srv.Addr(), ClientOptions{
		CallTimeout: 50 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 1},
	})
	defer cli.Close()
	if _, err := cli.Call(&Request{Op: OpRead, Handle: 1}); err == nil {
		t.Fatal("hung read succeeded")
	}
	// The next call must run on a fresh connection and see its own reply.
	resp, err := cli.Call(&Request{Op: OpPing, Handle: 2})
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	defer resp.Release()
	if resp.Handle != 2 {
		t.Fatalf("stale response delivered: handle %d, want 2", resp.Handle)
	}
}

// The default options keep the seed behaviour: two attempts, so an
// idle-closed pooled connection is retried transparently.
func TestDefaultPolicyHasRetryBudget(t *testing.T) {
	cli := Dial("127.0.0.1:1")
	defer cli.Close()
	if cli.retry.MaxAttempts != 2 {
		t.Fatalf("default attempts = %d, want 2", cli.retry.MaxAttempts)
	}
	if cli.callTimeout != DefaultCallTimeout {
		t.Fatalf("default call timeout = %v", cli.callTimeout)
	}
}
