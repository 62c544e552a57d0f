package experiment

import (
	"fmt"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
)

// E21 measures server failover (DESIGN.md §14): a 4-server cluster
// loses one member halfway through the measurement window and keeps
// serving.  The recovery curve (Config.SampleIntervals) yields two
// throughput rates — the steady state before the kill and the steady
// state the survivors settle into — and their ratio is the headline:
// with the offered load below the survivors' aggregate ceiling,
// leastloaded recovers ≥ 80% of the 4-member rate on 3 members.  The
// popularity points sweep Config.ReplicaDepth, the survivability knob:
// at depth 1 most of the cold catalog was single-homed on the victim,
// so every reference to it falls back through NoHolder and triggers a
// materialization; deeper ladders keep the catalog multi-homed and the
// replica-healing pass has less to re-create.

// E21Servers is the fleet size; E21Victim is the member the plan kills.
const (
	E21Servers = 4
	E21Victim  = 1
)

// E21ArrivalsPerServer is the offered load each member adds.  Unlike
// E20 this is deliberately below a quick-scale server's display
// ceiling: recovery is only observable when the survivors have the
// headroom to absorb the victim's share.
const E21ArrivalsPerServer = 1500.0

// E21HealBudget is the replica-healing budget per healing window.
const E21HealBudget = 2

// E21SampleIntervals is the recovery-curve sampling cadence.
const E21SampleIntervals = 150

// FailoverPoint is one E21 measurement: one dispatch policy at one
// replica depth, with one member killed mid-window.
type FailoverPoint struct {
	Policy string `json:"policy"`
	Depth  int    `json:"replica_depth"`
	// PreKillPerHour and PostKillPerHour are the cluster throughput
	// rates before the kill and after the survivors settle, from the
	// recovery curve.
	PreKillPerHour  float64 `json:"pre_kill_per_hour"`
	PostKillPerHour float64 `json:"post_kill_per_hour"`
	// Recovery is PostKillPerHour over PreKillPerHour.
	Recovery float64 `json:"recovery"`
	// FailedOver counts dispatches re-routed off the dead member.
	FailedOver int `json:"failed_over"`
	// Orphaned / ReAdmitted / Dropped are the kill-drain conservation
	// counters: Orphaned == ReAdmitted + Dropped always.
	Orphaned   int `json:"orphaned"`
	ReAdmitted int `json:"readmitted"`
	Dropped    int `json:"dropped"`
	// Lost counts fresh arrivals that found every member dead (0 here —
	// three members always survive).
	Lost int `json:"lost"`
	// NoHolder counts popularity fallbacks (no live holder).
	NoHolder int `json:"no_holder,omitempty"`
	// Healed and RedistributeSeconds summarize the healing pass.
	Healed              int     `json:"healed"`
	RedistributeSeconds float64 `json:"redistribute_seconds"`
}

// e21Points is the policy × depth grid: leastloaded as the
// object-blind baseline, popularity across the replica-depth ladder.
var e21Points = []struct {
	policy string
	depth  int
}{
	{"leastloaded", 1},
	{"popularity", 1},
	{"popularity", 2},
	{"popularity", 4},
}

// e21KillAt returns the kill interval: halfway into the measurement
// window.
func e21KillAt(base sched.Config) int {
	return base.WarmupIntervals + base.MeasureIntervals/2
}

// E21Config builds one E21 point: E20's quick per-server geometry and
// Zipf skew, a sub-saturation offered load, a one-shot kill of member
// E21Victim halfway through the window, budgeted replica healing, and
// the recovery-curve sampler.
func E21Config(policy string, depth int, seed uint64) cluster.Config {
	base := BaseConfig(Quick, 64, 20, seed)
	base.ZipfSkew = E20ZipfTheta
	base.ArrivalsPerHour = E21ArrivalsPerServer * E21Servers
	return cluster.Config{
		Servers:         E21Servers,
		Technique:       "striped",
		Dispatch:        policy,
		Base:            base,
		ServerPlan:      fault.NewPlan().FailServer(E21Victim, e21KillAt(base)),
		HealBudget:      E21HealBudget,
		ReplicaDepth:    depth,
		SampleIntervals: E21SampleIntervals,
	}
}

// RunE21Point executes one policy × depth measurement.
func RunE21Point(policy string, depth int, seed uint64) (FailoverPoint, error) {
	cfg := E21Config(policy, depth, seed)
	sim, err := cluster.New(cfg)
	if err != nil {
		return FailoverPoint{}, fmt.Errorf("e21 %s×d%d: %w", policy, depth, err)
	}
	res, err := sim.Run()
	if err != nil {
		return FailoverPoint{}, fmt.Errorf("e21 %s×d%d: %w", policy, depth, err)
	}
	dt := cfg.Base.IntervalSeconds()
	warmS := float64(cfg.Base.WarmupIntervals) * dt
	killS := float64(e21KillAt(cfg.Base)) * dt
	endS := float64(cfg.Base.WarmupIntervals+cfg.Base.MeasureIntervals) * dt
	// Pre-kill rate over the whole live window; post-kill rate over the
	// second half of the outage, past the re-admission transient.
	pre := sampleRate(res.Samples, warmS, killS)
	post := sampleRate(res.Samples, killS+(endS-killS)/2, endS)
	p := FailoverPoint{
		Policy:              policy,
		Depth:               depth,
		PreKillPerHour:      pre * 3600,
		PostKillPerHour:     post * 3600,
		FailedOver:          res.FailedOver,
		Orphaned:            res.OrphanedRequests,
		ReAdmitted:          res.ReAdmitted,
		Dropped:             res.ReAdmitDropped,
		Lost:                res.LostArrivals,
		NoHolder:            res.NoHolder,
		Healed:              res.HealedReplicas,
		RedistributeSeconds: res.RedistributeSeconds,
	}
	if pre > 0 {
		p.Recovery = post / pre
	}
	return p, nil
}

// sampleRate returns the displays-per-second rate a recovery curve
// shows across the sample window [t0, t1] — the cumulative count at
// the last sample in the window minus the count at the first, over the
// elapsed time.
func sampleRate(samples []cluster.Sample, t0, t1 float64) float64 {
	first, last := -1, -1
	for i, s := range samples {
		if s.Seconds < t0 || s.Seconds > t1 {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
	}
	if first < 0 || last <= first {
		return 0
	}
	ds := samples[last].Displays - samples[first].Displays
	span := samples[last].Seconds - samples[first].Seconds
	return float64(ds) / span
}

// E21 runs the full policy × depth grid concurrently (the simulations
// are deterministic regardless), in e21Points order.
func E21(seed uint64) ([]FailoverPoint, error) {
	points := make([]FailoverPoint, len(e21Points))
	err := parallel(len(points), func(i int) error {
		var err error
		points[i], err = RunE21Point(e21Points[i].policy, e21Points[i].depth, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// RenderE21 formats the grid as the EXPERIMENTS.md E21 table.
func RenderE21(points []FailoverPoint) string {
	tbl := &metrics.Table{Header: []string{
		"policy", "depth", "pre_kill_per_hour", "post_kill_per_hour", "recovery",
		"failed_over", "orphaned", "readmitted", "dropped", "no_holder", "healed", "redistribute_s",
	}}
	for _, p := range points {
		tbl.AddRow(
			p.Policy,
			fmt.Sprintf("%d", p.Depth),
			fmt.Sprintf("%.1f", p.PreKillPerHour),
			fmt.Sprintf("%.1f", p.PostKillPerHour),
			fmt.Sprintf("%.2f", p.Recovery),
			fmt.Sprintf("%d", p.FailedOver),
			fmt.Sprintf("%d", p.Orphaned),
			fmt.Sprintf("%d", p.ReAdmitted),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%d", p.NoHolder),
			fmt.Sprintf("%d", p.Healed),
			fmt.Sprintf("%.1f", p.RedistributeSeconds),
		)
	}
	return fmt.Sprintf("E21: server failover, %d servers, member %d killed mid-window (Zipf θ=%.1f)\n",
		E21Servers, E21Victim, E20ZipfTheta) + tbl.String()
}
