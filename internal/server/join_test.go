package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cgct"
	"cgct/internal/faultinject"
)

// TestResultPayloadJoinsSimulatingLeader pins the ?wait=1 join contract:
// with no local leader simulating the key it answers at once (404), a
// join parks on a leader inside simulate and returns that run's result,
// a join aborts with its caller's context, and the leader deregisters
// when it finishes.
func TestResultPayloadJoinsSimulatingLeader(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	ctx := context.Background()
	key := fmt.Sprintf("%064x", 0x5eed)

	start := time.Now()
	if _, err := m.ResultPayload(ctx, key, true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wait=1 with no leader: %v, want ErrNotFound", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("wait=1 with no leader took %v", d)
	}

	// Hold the leader inside its simulation long enough to join it.
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.PointSimEventLoop, faultinject.Spec{
		Mode: faultinject.ModeDelay, Probability: 1, Delay: 300 * time.Millisecond, Limit: 1,
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	req := JobRequest{Type: TypeSim, Benchmark: "ocean", Options: cgct.Options{OpsPerProc: 2_000, Seed: 3}}
	type outcome struct {
		res any
		err error
	}
	led := make(chan outcome, 1)
	go func() {
		res, err := m.simulate(ctx, key, req)
		led <- outcome{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		registered := m.sims[key] != nil
		m.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered as simulating")
		}
		time.Sleep(time.Millisecond)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.ResultPayload(cctx, key, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("join with a cancelled context: %v, want context.Canceled", err)
	}

	joined, err := m.ResultPayload(ctx, key, true)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	out := <-led
	if out.err != nil {
		t.Fatalf("leader: %v", out.err)
	}
	want, err := canonicalResult(out.res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined, want) {
		t.Fatal("joined payload differs from the leader's result")
	}
	m.mu.Lock()
	left := m.sims[key]
	m.mu.Unlock()
	if left != nil {
		t.Fatal("finished leader still registered as simulating")
	}
}
