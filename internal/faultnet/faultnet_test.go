package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// checkResponses fails the test if a pooled Response a link handed out
// while it ran — delivered, or one a fault swallowed — is still unreleased
// at its end.
func checkResponses(t *testing.T) {
	t.Helper()
	testutil.CheckBalance(t, "pooled responses outstanding", transport.OutstandingResponses)
}

// release drops a delivered response, for calls whose result the test
// does not read.
func release(resp *transport.Response, err error) {
	if err == nil {
		resp.Release()
	}
}

// okHandler answers every op with a fixed payload.
func okHandler(req *transport.Request) *transport.Response {
	return &transport.Response{Status: transport.StatusOK, Handle: 1, Size: 4, Data: []byte("data")}
}

// drive issues calls ops against a fresh injector and returns its trace.
func drive(sched Schedule, servers int, calls int) []Event {
	in := New(sched)
	defer in.Close()
	ts := make([]transport.Transport, servers)
	for i := range ts {
		ts[i] = in.Wrap(fmt.Sprintf("srv%d", i), transport.NewSim(fmt.Sprintf("srv%d", i), okHandler))
	}
	ops := []transport.Op{transport.OpOpen, transport.OpRead, transport.OpClose}
	for c := 0; c < calls; c++ {
		t := ts[c%servers]
		release(t.Call(&transport.Request{Op: ops[c%len(ops)], Path: "/pfs/f", Len: 4}))
	}
	return in.Trace()
}

// The tentpole contract: a schedule replays bit-for-bit for a fixed seed,
// including the probabilistic rules, and changes when the seed changes.
func TestScheduleReplaysBitForBit(t *testing.T) {
	checkResponses(t)
	sched := Schedule{
		Seed:        42,
		HangTimeout: time.Millisecond,
		Rules: []Rule{
			{Server: "srv0", Op: transport.OpOpen, Every: 3, Fault: Refuse},
			{Server: "srv1", Prob: 0.5, Fault: Corrupt},
			{Op: transport.OpRead, Prob: 0.25, Fault: Truncate},
		},
	}
	t1 := drive(sched, 2, 240)
	t2 := drive(sched, 2, 240)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("same seed produced different fault traces")
	}
	injected := 0
	for _, e := range t1 {
		if e.Fault != None {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("schedule injected nothing; the replay assertion is vacuous")
	}
	sched.Seed = 43
	t3 := drive(sched, 2, 240)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical probabilistic traces")
	}
}

func TestRuleScoping(t *testing.T) {
	checkResponses(t)
	in := New(Schedule{Rules: []Rule{
		{Server: "srv1", Op: transport.OpOpen, Fault: Refuse},
	}})
	defer in.Close()
	s0 := in.Wrap("srv0", transport.NewSim("srv0", okHandler))
	s1 := in.Wrap("srv1", transport.NewSim("srv1", okHandler))

	resp, err := s0.Call(&transport.Request{Op: transport.OpOpen})
	if err != nil {
		t.Fatalf("rule leaked to srv0: %v", err)
	}
	resp.Release()
	resp, err = s1.Call(&transport.Request{Op: transport.OpRead})
	if err != nil {
		t.Fatalf("rule leaked to OpRead: %v", err)
	}
	resp.Release()
	_, err = s1.Call(&transport.Request{Op: transport.OpOpen})
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("scoped rule did not fire: %v", err)
	}
	if !strings.Contains(err.Error(), "srv1") {
		t.Fatalf("error does not name the failing server: %v", err)
	}
}

func TestEveryOffsetIndexing(t *testing.T) {
	checkResponses(t)
	in := New(Schedule{Rules: []Rule{
		{Offset: 2, Every: 3, Fault: Refuse},
	}})
	defer in.Close()
	tr := in.Wrap("srv0", transport.NewSim("srv0", okHandler))
	var failed []int
	for i := 0; i < 9; i++ {
		resp, err := tr.Call(&transport.Request{Op: transport.OpOpen})
		if err != nil {
			failed = append(failed, i)
			continue
		}
		resp.Release()
	}
	if want := []int{2, 5, 8}; !reflect.DeepEqual(failed, want) {
		t.Fatalf("Offset+Every fired on calls %v, want %v", failed, want)
	}
}

func TestEachFaultSurface(t *testing.T) {
	for _, tc := range []struct {
		fault   Fault
		wantErr error
	}{
		{Refuse, ErrRefused},
		{Disconnect, ErrDisconnected},
		{Hang, ErrHung},
		{Truncate, nil},
		{Corrupt, nil},
	} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			checkResponses(t)
			calls := 0
			inner := transport.NewSim("srv0", func(req *transport.Request) *transport.Response {
				calls++
				return okHandler(req)
			})
			in := New(Schedule{HangTimeout: 5 * time.Millisecond, Rules: []Rule{{Fault: tc.fault}}})
			defer in.Close()
			tr := in.Wrap("srv0", inner)
			resp, err := tr.Call(&transport.Request{Op: transport.OpRead, Len: 4})
			if err == nil {
				t.Fatalf("fault %s delivered a response: %+v", tc.fault, resp)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("fault %s returned %v, want %v", tc.fault, err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "srv0") {
				t.Fatalf("fault %s error does not name the server: %v", tc.fault, err)
			}
			switch tc.fault {
			case Refuse, Hang:
				if calls != 0 {
					t.Fatalf("%s reached the server", tc.fault)
				}
			default:
				if calls != 1 {
					t.Fatalf("%s reached the server %d times, want 1", tc.fault, calls)
				}
			}
		})
	}
}

func TestDelayDeliversLate(t *testing.T) {
	checkResponses(t)
	in := New(Schedule{Rules: []Rule{{Fault: Delay, Delay: 20 * time.Millisecond}}})
	defer in.Close()
	tr := in.Wrap("srv0", transport.NewSim("srv0", okHandler))
	start := time.Now()
	resp, err := tr.Call(&transport.Request{Op: transport.OpRead, Len: 4})
	if err != nil || !resp.OK() {
		t.Fatalf("delayed call failed: %v", err)
	}
	resp.Release()
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delay fault returned after %v, want >= 20ms", elapsed)
	}
}

func TestInjectorCloseReleasesHangs(t *testing.T) {
	in := New(Schedule{HangTimeout: time.Minute, Rules: []Rule{{Fault: Hang}}})
	tr := in.Wrap("srv0", transport.NewSim("srv0", okHandler))
	done := make(chan error, 1)
	go func() {
		_, err := tr.Call(&transport.Request{Op: transport.OpPing})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	in.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrHung) {
			t.Fatalf("released hang returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release the hung call")
	}
}

// Damaged frames must fail decode (or be refused) — never silently
// deliver corrupt bytes.
func TestCorrupterDamagesFramesDeterministically(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0xAB}, 512)
	if err := transport.WriteResponse(&buf, &transport.Response{Status: transport.StatusOK, Size: 512, Data: payload}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for seed := uint64(0); seed < 64; seed++ {
		c1, c2 := NewCorrupter(seed), NewCorrupter(seed)
		t1, t2 := c1.Truncate(append([]byte(nil), frame...)), c2.Truncate(append([]byte(nil), frame...))
		if !bytes.Equal(t1, t2) {
			t.Fatalf("seed %d: truncation not deterministic", seed)
		}
		if len(t1) >= len(frame) {
			t.Fatalf("seed %d: truncation removed nothing", seed)
		}
		if _, err := transport.ReadResponse(bytes.NewReader(t1)); err == nil {
			t.Fatalf("seed %d: truncated frame decoded cleanly", seed)
		}
		b1, b2 := c1.BitFlip(append([]byte(nil), frame...)), c2.BitFlip(append([]byte(nil), frame...))
		if !bytes.Equal(b1, b2) {
			t.Fatalf("seed %d: bit flips not deterministic", seed)
		}
	}
}

// TestCorruptFrameThatDecodesIsRefused drives the Corrupt branch whose
// damaged frame still decodes (a flip in the handle, size or payload): the
// call fails with ErrUndetectedCorruption rather than delivering it, and
// the phantom response the decode produced goes back to the pool.
func TestCorruptFrameThatDecodesIsRefused(t *testing.T) {
	checkResponses(t)
	refused := 0
	for seed := uint64(0); seed < 32; seed++ {
		in := New(Schedule{Seed: seed, Rules: []Rule{{Fault: Corrupt}}})
		_, err := in.Wrap("srv0", transport.NewSim("srv0", okHandler)).Call(&transport.Request{Op: transport.OpRead, Len: 4})
		in.Close()
		if err == nil {
			t.Fatalf("seed %d: a corrupted frame was delivered", seed)
		}
		if errors.Is(err, ErrUndetectedCorruption) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no seed damaged a frame that still decodes; the case is vacuous")
	}
}

// TestKillMarksServerDead: a Kill rule at a call index fails that call
// and every later call to the same server — any op — while other
// servers stay untouched, and the trace still replays bit-for-bit.
func TestKillMarksServerDead(t *testing.T) {
	checkResponses(t)
	sched := Schedule{Rules: []Rule{
		{Server: "srv0", Op: transport.OpOpen, Offset: 2, Fault: Kill},
	}}
	in := New(sched)
	defer in.Close()
	s0 := in.Wrap("srv0", transport.NewSim("srv0", okHandler))
	s1 := in.Wrap("srv1", transport.NewSim("srv1", okHandler))

	for i := 0; i < 2; i++ {
		resp, err := s0.Call(&transport.Request{Op: transport.OpOpen, Path: "/pfs/f"})
		if err != nil {
			t.Fatalf("open %d before the kill index failed: %v", i, err)
		}
		resp.Release()
	}
	if _, err := s0.Call(&transport.Request{Op: transport.OpOpen, Path: "/pfs/f"}); !errors.Is(err, ErrKilled) {
		t.Fatalf("open at the kill index: got %v, want ErrKilled", err)
	}
	// Dead is sticky and spans every op, not just the triggering one.
	for _, op := range []transport.Op{transport.OpRead, transport.OpPing, transport.OpClose, transport.OpOpen} {
		if _, err := s0.Call(&transport.Request{Op: op}); !errors.Is(err, ErrKilled) {
			t.Fatalf("op %d after kill: got %v, want ErrKilled", op, err)
		}
	}
	resp, err := s1.Call(&transport.Request{Op: transport.OpOpen, Path: "/pfs/f"})
	if err != nil {
		t.Fatalf("kill leaked to srv1: %v", err)
	}
	resp.Release()
	if dead := in.DeadServers(); len(dead) != 1 || dead[0] != "srv0" {
		t.Fatalf("DeadServers() = %v, want [srv0]", dead)
	}

	// The whole sequence, replayed on a fresh injector, produces the
	// identical decision trace.
	in2 := New(sched)
	defer in2.Close()
	r0 := in2.Wrap("srv0", transport.NewSim("srv0", okHandler))
	r1 := in2.Wrap("srv1", transport.NewSim("srv1", okHandler))
	for i := 0; i < 3; i++ {
		release(r0.Call(&transport.Request{Op: transport.OpOpen, Path: "/pfs/f"}))
	}
	for _, op := range []transport.Op{transport.OpRead, transport.OpPing, transport.OpClose, transport.OpOpen} {
		release(r0.Call(&transport.Request{Op: op}))
	}
	release(r1.Call(&transport.Request{Op: transport.OpOpen, Path: "/pfs/f"}))
	if !reflect.DeepEqual(in.Trace(), in2.Trace()) {
		t.Fatal("kill schedule did not replay bit-for-bit")
	}
}

// TestPermanentlySlowServer: a Delay rule with no Every/Prob selector is
// a permanently slow server — every call from Offset on is held.
func TestPermanentlySlowServer(t *testing.T) {
	checkResponses(t)
	in := New(Schedule{Rules: []Rule{
		{Server: "srv0", Offset: 1, Fault: Delay, Delay: 10 * time.Millisecond},
	}})
	defer in.Close()
	tr := in.Wrap("srv0", transport.NewSim("srv0", okHandler))

	start := time.Now()
	resp, err := tr.Call(&transport.Request{Op: transport.OpRead, Len: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Fatalf("call before Offset was delayed %v", elapsed)
	}
	for i := 0; i < 3; i++ {
		start = time.Now()
		resp, err := tr.Call(&transport.Request{Op: transport.OpRead, Len: 4})
		if err != nil || !resp.OK() {
			t.Fatalf("slow call %d failed: %v", i, err)
		}
		resp.Release()
		if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
			t.Fatalf("slow call %d returned after %v, want >= 10ms", i, elapsed)
		}
	}
}

func TestFaultStringNames(t *testing.T) {
	for f := None; f <= Kill; f++ {
		if strings.HasPrefix(f.String(), "fault(") {
			t.Fatalf("fault %d has no name", f)
		}
	}
	if Fault(200).String() != "fault(200)" {
		t.Fatal("unknown fault misrendered")
	}
}
