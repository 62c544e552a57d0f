package sched

import (
	"fmt"
	"strconv"
)

// Display names reported in Result.Technique.  These are the single
// source of technique naming: golden dumps, sweep output, and figure
// legends all trace back here.
const (
	// SimpleStripingName labels the striping technique at its k = M
	// special case (each subobject on M adjacent disks, no stagger).
	SimpleStripingName = "simple striping"
	// StaggeredStripingName labels the striping technique at any
	// other stride; the reported name carries the stride, see
	// StripingTechniqueName.
	StaggeredStripingName = "staggered striping"
	// VDRName labels the virtual-data-replication baseline of [GS93].
	VDRName = "virtual data replication"
)

// StripingTechniqueName returns the display name the striping family
// reports for a configuration: SimpleStripingName when the stride
// equals the declustering degree, the stride-qualified
// StaggeredStripingName otherwise.
func StripingTechniqueName(cfg Config) string {
	if cfg.K == cfg.M {
		return SimpleStripingName
	}
	return StaggeredStripingName + " (k=" + strconv.Itoa(cfg.K) + ")"
}

// TechniqueInfo describes one registered technique: its CLI key, its
// display name, and how to configure and build an engine for it.
type TechniqueInfo struct {
	// Key is the stable CLI identifier (-technique flag value).
	Key string
	// Display is the technique's display-name constant.  For the
	// staggered technique the reported Result.Technique additionally
	// carries the stride.
	Display string
	// Summary is a one-line description for -list-techniques.
	Summary string

	configure func(cfg Config, stride int) (Config, error)
	factory   func() Technique
}

// Configure normalizes cfg for this technique, applying the CLI-level
// stride argument (0 means "technique default").  It is what the
// command-line tools use; library callers that have already set
// Config.K can build with New directly.
func (ti TechniqueInfo) Configure(cfg Config, stride int) (Config, error) {
	return ti.configure(cfg, stride)
}

// New builds an engine running this technique on cfg, verbatim.
func (ti TechniqueInfo) New(cfg Config) (*Engine, error) {
	return NewEngine(cfg, ti.factory())
}

// techniques is the registry, in presentation order.
var techniques = []TechniqueInfo{
	{
		Key:     "striped",
		Display: SimpleStripingName,
		Summary: "simple striping: stride k = M, contiguous admission only",
		configure: func(cfg Config, stride int) (Config, error) {
			if stride != 0 && stride != cfg.M {
				return cfg, fmt.Errorf("sched: technique striped requires stride k = M (%d), got %d", cfg.M, stride)
			}
			cfg.K = cfg.M
			return cfg, nil
		},
		factory: func() Technique { return &stripedTech{} },
	},
	{
		Key:     "staggered",
		Display: StaggeredStripingName,
		Summary: "staggered striping: configurable stride k with Algorithms 1 and 2 (default k = 1)",
		configure: func(cfg Config, stride int) (Config, error) {
			if stride == 0 {
				stride = 1
			}
			if stride < 1 || stride > cfg.D {
				return cfg, fmt.Errorf("sched: staggered stride k must be in [1, D=%d], got %d", cfg.D, stride)
			}
			cfg.K = stride
			return cfg, nil
		},
		factory: func() Technique { return &stripedTech{staggered: true} },
	},
	{
		Key:     "vdr",
		Display: VDRName,
		Summary: "virtual data replication baseline: cluster-resident objects, dynamic replication (k = D special case)",
		configure: func(cfg Config, stride int) (Config, error) {
			if stride != 0 {
				return cfg, fmt.Errorf("sched: technique vdr has no stride parameter, got k=%d", stride)
			}
			return cfg, nil
		},
		factory: func() Technique { return &vdrTech{} },
	},
}

// Techniques returns the registered techniques in presentation order.
// The returned slice is a copy; callers may not mutate the registry.
func Techniques() []TechniqueInfo {
	out := make([]TechniqueInfo, len(techniques))
	copy(out, techniques)
	return out
}

// TechniqueKeys returns the registered CLI keys in presentation
// order.
func TechniqueKeys() []string {
	keys := make([]string, len(techniques))
	for i, ti := range techniques {
		keys[i] = ti.Key
	}
	return keys
}

// TechniqueByKey looks a technique up by CLI key.
func TechniqueByKey(key string) (TechniqueInfo, bool) {
	for _, ti := range techniques {
		if ti.Key == key {
			return ti, true
		}
	}
	return TechniqueInfo{}, false
}

// NewEngineFor configures and builds an engine for the technique with
// the given CLI key, applying the stride argument (0 = technique
// default).  It returns the engine together with the normalized
// configuration it runs.
func NewEngineFor(key string, cfg Config, stride int) (*Engine, Config, error) {
	ti, ok := TechniqueByKey(key)
	if !ok {
		return nil, cfg, fmt.Errorf("sched: unknown technique %q (have %v)", key, TechniqueKeys())
	}
	normalized, err := ti.Configure(cfg, stride)
	if err != nil {
		return nil, cfg, err
	}
	e, err := ti.New(normalized)
	if err != nil {
		return nil, normalized, err
	}
	return e, normalized, nil
}
