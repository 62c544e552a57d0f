package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
)

// newMember builds a member as a cluster does, on the popularity cfg
// describes.
func newMember(ti TechniqueInfo, cfg Config, preload []int) (*Engine, error) {
	dist, err := cfg.Popularity()
	if err != nil {
		return nil, err
	}
	return ti.NewMember(cfg, dist, preload)
}

// TestNewMemberSharesPopularity pins that a member reads the popularity
// it is handed instead of building the one its Config describes, that
// it builds no generator (it draws nothing), and that the constructor
// refuses none or one over another catalog.
func TestNewMemberSharesPopularity(t *testing.T) {
	cfg := smallConfig(8, 10)
	// The catalog's popularity reversed: not what cfg describes.
	w := make([]float64, cfg.Objects)
	for i := range w {
		w[i] = float64(i + 1)
	}
	rev, err := rng.NewDiscrete(w)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := rng.NewDiscrete(w[1:])
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range Techniques() {
		if _, err := ti.NewMember(cfg, nil, nil); err == nil {
			t.Errorf("%s: member accepted no popularity", ti.Key)
		}
		if _, err := ti.NewMember(cfg, wrong, nil); err == nil {
			t.Errorf("%s: member accepted a popularity over %d objects for a catalog of %d", ti.Key, wrong.Len(), cfg.Objects)
		}
		e, err := ti.NewMember(cfg, rev, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if e.gen != nil {
			t.Errorf("%s: member built a generator of %d station streams", ti.Key, cfg.Stations)
		}
		for id := 0; id < cfg.Objects; id++ {
			if p := e.dist.P(id); p != rev.P(id) {
				t.Fatalf("%s: member reads popularity %v for object %d, handed %v", ti.Key, p, id, rev.P(id))
			}
		}
	}
}

// TestNewMemberRejectsOutOfRangePreload pins the member constructor's
// range check on the preload list, for every technique.
func TestNewMemberRejectsOutOfRangePreload(t *testing.T) {
	cfg := smallConfig(8, 10)
	for _, ti := range Techniques() {
		for _, id := range []int{-1, cfg.Objects} {
			if _, err := newMember(ti, cfg, []int{0, id}); err == nil {
				t.Errorf("%s: preload id %d accepted", ti.Key, id)
			}
		}
	}
}

// TestNewMemberRejectsOwnArrivals pins that a member draws nothing of
// its own: the cluster feeds it through InjectArrival.
func TestNewMemberRejectsOwnArrivals(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ArrivalsPerHour = 3000
	ti, _ := TechniqueByKey("striped")
	if _, err := newMember(ti, cfg, nil); err == nil {
		t.Error("member with its own Poisson stream accepted")
	}
}

// TestBuildRefusesOwnArrivals pins that no engine build draws open
// arrivals: NewEngine, NewEngineFor and NewMember all refuse a positive
// ArrivalsPerHour with ErrOwnArrivals, which names cluster.New, the one
// driver that draws them; at rate zero all three build.
func TestBuildRefusesOwnArrivals(t *testing.T) {
	ti, _ := TechniqueByKey("striped")
	builds := map[string]func(Config) (*Engine, error){
		"NewEngine": func(cfg Config) (*Engine, error) { return NewEngine(cfg, &stripedTech{}) },
		"NewEngineFor": func(cfg Config) (*Engine, error) {
			e, _, err := NewEngineFor("striped", cfg, 0)
			return e, err
		},
		"NewMember": func(cfg Config) (*Engine, error) { return newMember(ti, cfg, nil) },
	}
	for name, build := range builds {
		cfg := smallConfig(8, 10)
		if _, err := build(cfg); err != nil {
			t.Fatalf("%s: closed config refused: %v", name, err)
		}
		cfg.ArrivalsPerHour = 3000
		_, err := build(cfg)
		if !errors.Is(err, ErrOwnArrivals) {
			t.Errorf("%s: ArrivalsPerHour 3000 gave error %v, want ErrOwnArrivals", name, err)
		} else if !strings.Contains(err.Error(), "cluster.New") {
			t.Errorf("%s: error %q does not name cluster.New", name, err)
		}
	}
}

// TestNewMemberPreloadsExactly pins that a member pre-places exactly
// its assigned objects: an empty assignment leaves the farm cold
// instead of falling back to the standalone engine's most-popular
// preload.
func TestNewMemberPreloadsExactly(t *testing.T) {
	cfg := smallConfig(8, 10)
	for _, ti := range Techniques() {
		standalone, err := ti.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if standalone.tech.uniqueResidents() == 0 {
			t.Fatalf("%s: standalone engine preloaded nothing; the cold check below proves nothing", ti.Key)
		}
		for _, preload := range [][]int{nil, {}} {
			e, err := newMember(ti, cfg, preload)
			if err != nil {
				t.Fatal(err)
			}
			if n := e.tech.uniqueResidents(); n != 0 {
				t.Errorf("%s: empty assignment %#v preloaded %d objects", ti.Key, preload, n)
			}
		}
		e, err := newMember(ti, cfg, []int{3, 7})
		if err != nil {
			t.Fatal(err)
		}
		if n := e.tech.uniqueResidents(); n != 2 || !e.HoldsObject(3) || !e.HoldsObject(7) {
			t.Errorf("%s: assignment {3, 7} left %d residents (holds 3: %v, 7: %v)",
				ti.Key, n, e.HoldsObject(3), e.HoldsObject(7))
		}
	}
}

// TestKillReviveMisuse pins the failover surface's three misuses as
// sentinel errors that leave the engine as it was: killing a dead or a
// closed-loop engine, and reviving a live one.
func TestKillReviveMisuse(t *testing.T) {
	cfg := smallConfig(8, 10)
	ti, _ := TechniqueByKey("striped")
	// killedMember returns a member killed at interval 3.
	killedMember := func(t *testing.T) *Engine {
		e, err := newMember(ti, cfg, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Prime()
		for e.now < 3 {
			e.StepOne()
		}
		if _, err := e.Kill(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	cases := []struct {
		name     string
		misuse   func(t *testing.T) (*Engine, error)
		want     error
		wantDead bool
	}{
		{"kill dead", func(t *testing.T) (*Engine, error) {
			e := killedMember(t)
			_, err := e.Kill()
			return e, err
		}, ErrKillDead, true},
		{"kill closed loop", func(t *testing.T) (*Engine, error) {
			e, err := ti.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Kill()
			return e, err
		}, ErrKillClosedLoop, false},
		{"revive live", func(t *testing.T) (*Engine, error) {
			e := killedMember(t)
			if err := e.Revive(); err != nil {
				t.Fatal(err)
			}
			return e, e.Revive()
		}, ErrReviveLive, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := c.misuse(t)
			if !errors.Is(err, c.want) {
				t.Fatalf("got error %v, want %v", err, c.want)
			}
			if e.Dead() != c.wantDead {
				t.Fatalf("engine dead = %v after the refused call, want %v", e.Dead(), c.wantDead)
			}
		})
	}
}

// TestInjectArrivalMisuse pins the member queue entry point's three
// misuses as sentinel errors that leave the engine as it was: an
// arrival on a closed-loop engine, on a dead one, and for an object
// outside the catalog, whose error names the object.
func TestInjectArrivalMisuse(t *testing.T) {
	cfg := smallConfig(8, 10)
	ti, _ := TechniqueByKey("striped")
	member := func(t *testing.T) *Engine {
		e, err := newMember(ti, cfg, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		e.Prime()
		if _, err := e.InjectArrival(2); err != nil {
			t.Fatal(err)
		}
		e.StepOne()
		return e
	}
	cases := []struct {
		name   string
		engine func(t *testing.T) *Engine
		object int
		want   error
	}{
		{"closed loop", func(t *testing.T) *Engine {
			e, err := ti.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.StepOne()
			return e
		}, 0, ErrInjectClosedLoop},
		{"dead", func(t *testing.T) *Engine {
			e := member(t)
			if _, err := e.Kill(); err != nil {
				t.Fatal(err)
			}
			return e
		}, 0, ErrInjectDead},
		{"object below range", member, -1, ErrInjectObject},
		{"object above range", member, cfg.Objects, ErrInjectObject},
	}
	// state is what an injection changes.
	state := func(e *Engine) [6]int {
		return [6]int{e.requests, e.QueuedRequests(), len(e.idle), e.stn.TotalIssued(), e.openRejected, e.Now()}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.engine(t)
			before := state(e)
			ok, err := e.InjectArrival(c.object)
			if !errors.Is(err, c.want) || ok {
				t.Fatalf("got (%v, %v), want (false, %v)", ok, err, c.want)
			}
			if c.want == ErrInjectObject && !strings.Contains(err.Error(), fmt.Sprintf("object %d", c.object)) {
				t.Fatalf("error %q does not name object %d", err, c.object)
			}
			if after := state(e); after != before {
				t.Fatalf("the refused arrival changed the engine: %v before, %v after", before, after)
			}
		})
	}
}
