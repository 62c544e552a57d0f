package experiment

import (
	"reflect"
	"testing"
)

// TestE21FailoverRecovery runs the full E21 grid and pins the
// acceptance claims of the server-failover layer: a 4-server
// leastloaded cluster that loses one member mid-window recovers to
// ≥ 80% of its pre-kill throughput on the 3 survivors, no display is
// lost without an accounting (every orphaned request is re-admitted or
// counted dropped, and no arrival ever finds the whole cluster dead),
// and deeper replica ladders leave the popularity policy fewer
// holderless objects to fall back on.
func TestE21FailoverRecovery(t *testing.T) {
	points, err := E21(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderE21(points))

	byKey := make(map[string]FailoverPoint, len(points))
	for _, p := range points {
		byKey[p.Policy+string(rune('0'+p.Depth))] = p

		if p.PreKillPerHour <= 0 || p.PostKillPerHour <= 0 {
			t.Errorf("%s×d%d: empty recovery curve (pre %.1f, post %.1f)",
				p.Policy, p.Depth, p.PreKillPerHour, p.PostKillPerHour)
		}
		// Conservation: the kill drained some requests, and every one of
		// them is accounted for.  Three members survive the whole run, so
		// nothing is ever lost outright.
		r := p.Result
		if r.OrphanedRequests != r.ReAdmitted+r.ReAdmitDropped {
			t.Errorf("%s×d%d: orphan conservation violated: %d orphaned != %d readmitted + %d dropped",
				p.Policy, p.Depth, r.OrphanedRequests, r.ReAdmitted, r.ReAdmitDropped)
		}
		if r.LostArrivals != 0 {
			t.Errorf("%s×d%d: %d arrivals lost with 3 live members", p.Policy, p.Depth, r.LostArrivals)
		}
		if r.FailedOver <= 0 {
			t.Errorf("%s×d%d: no dispatch ever failed over off the dead member", p.Policy, p.Depth)
		}
	}

	ll := byKey["leastloaded1"]
	if ll.Recovery < 0.80 {
		t.Errorf("leastloaded recovered to %.2f of pre-kill throughput, want ≥ 0.80", ll.Recovery)
	}
	// Replica depth does not order NoHolder across seeds (EXPERIMENTS.md
	// E21, reading 4).  What it controls exactly, the number of objects
	// single-homed on the victim, is pinned by the cluster package's
	// TestReplicaAssignments.
}

// TestE21Deterministic pins that a failover run is exactly as
// reproducible as a clean one: same seed, same point, byte-identical
// counters and curve.
func TestE21Deterministic(t *testing.T) {
	a, err := RunE21Point("popularity", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunE21Point("popularity", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different failover results:\n  first:  %+v\n  second: %+v", a, b)
	}
}
