package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse compiles a fault-plan string into a Plan.  The grammar is a
// ';'-separated list of clauses (whitespace around clauses ignored):
//
//	fail:D@AT          one-shot failure of disk D at interval AT
//	fail:D@AT-UNTIL    failure of disk D at AT, repaired at UNTIL
//	slow:D@AT-UNTIL    latency-inflation window [AT, UNTIL) on disk D
//	tert@AT-UNTIL      tertiary-device outage [AT, UNTIL)
//	wear:LO-HI@mttf=F,mttr=R,until=H[,seed=S]
//	                   MTTF/MTTR repair process on disks LO..HI up to
//	                   interval H, drawn from seed S (default 1)
//	server:S@AT        one-shot kill of cluster member S at AT
//	server:S@AT-UNTIL  kill of member S at AT, cold restart at UNTIL
//	server:wear:LO-HI@mttf=F,mttr=R,until=H[,seed=S]
//	                   member-granularity MTTF/MTTR kill/restart process
//
// Example: "fail:3@500; slow:7@200-400; tert@1000-1500; server:1@2000".
// An empty string parses to an empty plan.  Server clauses are
// cluster-scope; callers running a cluster split a mixed plan with
// Plan.SplitServerScope.
func Parse(s string) (*Plan, error) {
	p := NewPlan()
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := parseClause(p, clause); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	return p, nil
}

func parseClause(p *Plan, clause string) error {
	switch {
	case strings.HasPrefix(clause, "fail:"):
		disk, at, until, ranged, err := parseDiskAt(clause[len("fail:"):])
		if err != nil {
			return err
		}
		if ranged {
			p.FailDiskUntil(disk, at, until)
		} else {
			p.FailDisk(disk, at)
		}
		return nil
	case strings.HasPrefix(clause, "slow:"):
		disk, at, until, ranged, err := parseDiskAt(clause[len("slow:"):])
		if err != nil {
			return err
		}
		if !ranged {
			return fmt.Errorf("slow window needs AT-UNTIL")
		}
		p.SlowDisk(disk, at, until)
		return nil
	case strings.HasPrefix(clause, "tert@"):
		at, until, ranged, err := parseSpan(clause[len("tert@"):])
		if err != nil {
			return err
		}
		if !ranged {
			return fmt.Errorf("tertiary outage needs AT-UNTIL")
		}
		p.TertiaryOutage(at, until)
		return nil
	case strings.HasPrefix(clause, "wear:"):
		return parseWear(p, clause[len("wear:"):], false)
	case strings.HasPrefix(clause, "server:wear:"):
		return parseWear(p, clause[len("server:wear:"):], true)
	case strings.HasPrefix(clause, "server:"):
		member, at, until, ranged, err := parseDiskAt(clause[len("server:"):])
		if err != nil {
			return err
		}
		if ranged {
			p.FailServerUntil(member, at, until)
		} else {
			p.FailServer(member, at)
		}
		return nil
	default:
		return fmt.Errorf("unknown clause kind")
	}
}

// parseDiskAt parses "D@AT" or "D@AT-UNTIL".
func parseDiskAt(s string) (disk, at, until int, ranged bool, err error) {
	disk = -1
	i := strings.IndexByte(s, '@')
	if i < 0 {
		err = fmt.Errorf("missing '@'")
		return
	}
	disk, err = strconv.Atoi(s[:i])
	if err != nil {
		err = fmt.Errorf("bad disk %q", s[:i])
		return
	}
	at, until, ranged, err = parseSpan(s[i+1:])
	return
}

// parseSpan parses "AT" or "AT-UNTIL".
func parseSpan(s string) (at, until int, ranged bool, err error) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		ranged = true
		if until, err = strconv.Atoi(s[i+1:]); err != nil {
			err = fmt.Errorf("bad interval %q", s[i+1:])
			return
		}
		s = s[:i]
	}
	if at, err = strconv.Atoi(s); err != nil {
		err = fmt.Errorf("bad interval %q", s)
		return
	}
	if ranged && until <= at {
		err = fmt.Errorf("window end %d not after start %d", until, at)
	}
	return
}

// Bounds on one wear clause, far above the largest farm the
// simulator builds (500k disks) and any realistic failure schedule,
// so a malformed clause errors instead of allocating gigabytes.
const (
	maxWearTargets = 1 << 20
	maxWearEvents  = 1 << 22
)

// parseWear parses "LO-HI@mttf=F,mttr=R,until=H[,seed=S]"; server
// selects the member-granularity process over the disk one.
func parseWear(p *Plan, s string, server bool) error {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return fmt.Errorf("missing '@'")
	}
	lo, hi, ranged, err := parseSpan(s[:i])
	if err != nil {
		return err
	}
	if !ranged {
		hi = lo
	}
	var (
		mttf, mttr float64
		horizon    int
		seed       uint64 = 1
	)
	for _, kv := range strings.Split(s[i+1:], ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("bad parameter %q", kv)
		}
		key, val := kv[:eq], kv[eq+1:]
		switch key {
		case "mttf":
			mttf, err = strconv.ParseFloat(val, 64)
		case "mttr":
			mttr, err = strconv.ParseFloat(val, 64)
		case "until":
			horizon, err = strconv.Atoi(val)
		case "seed":
			seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return fmt.Errorf("unknown parameter %q", key)
		}
		if err != nil {
			return fmt.Errorf("bad %s %q", key, val)
		}
	}
	if !validMean(mttf) || !validMean(mttr) || horizon <= 0 {
		return fmt.Errorf("wear needs finite mttf>0, mttr>0, and until>0")
	}
	if n := hi - lo + 1; n > maxWearTargets {
		return fmt.Errorf("wear range of %d targets exceeds %d", n, maxWearTargets)
	}
	// One fail/repair cycle lasts at least two intervals, and about
	// mttf+mttr on average.
	cycle := math.Max(mttf, 1) + math.Max(mttr, 1)
	if events := float64(hi-lo+1) * 2 * float64(horizon) / cycle; events > maxWearEvents {
		return fmt.Errorf("wear clause would schedule about %.3g events, more than %d", events, maxWearEvents)
	}
	disks := make([]int, 0, hi-lo+1)
	for d := lo; d <= hi; d++ {
		disks = append(disks, d)
	}
	if server {
		p.ServerWearProcess(disks, mttf, mttr, horizon, seed)
	} else {
		p.WearProcess(disks, mttf, mttr, horizon, seed)
	}
	return nil
}
