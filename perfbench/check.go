package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scheduler"
)

// digest hashes every deterministic simulated statistic of a single-DC
// stack: engine, generator, scheduler, monitor and TSDB counters, and each
// domain's controller statistics, frozen count, effective budget and last
// row sample. It excludes anything measured in host time.
func (s *dcStack) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "now=%d steps=%d pending=%d gen=%d sched=%+v queue=%d sweeps=%d points=%d\n",
		s.eng.Now(), s.eng.Steps(), s.eng.Pending(), s.gen.Generated(), s.sched.Stats(),
		s.sched.QueueLen(), s.mon.Sweeps(), s.db.PointCount())
	for r := 0; r < s.domains; r++ {
		p, _ := s.mon.RowPower(r)
		fmt.Fprintf(h, "%d %+v fz=%d b=%x p=%x\n", r, s.ctl.Stats(r), s.ctl.FrozenCount(r),
			math.Float64bits(s.ctl.EffectiveBudget(r)), math.Float64bits(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkConservation verifies job conservation, the freeze cap and that the
// controller's frozen sets match the scheduler's ground truth. Each failure
// is recorded on rep; label names the stack (a DC) in messages.
func checkConservation(rep *report, label string, c *cluster.Cluster, sched *scheduler.Scheduler,
	ctl *core.Controller, generated int64) {
	maxFreezeRatio := core.DefaultConfig().MaxFreezeRatio
	st := sched.Stats()
	running := int64(0)
	for _, sv := range c.Servers {
		running += int64(sched.RunningJobs(sv.ID))
	}
	if q := int64(sched.QueueLen()); st.Submitted != st.Placed+st.Rejected+q {
		rep.fail("%s: submitted %d != placed %d + rejected %d + queued %d", label, st.Submitted, st.Placed, st.Rejected, q)
	}
	if st.Placed != st.Completed+running+st.Killed {
		rep.fail("%s: placed %d != completed %d + running %d + killed %d", label, st.Placed, st.Completed, running, st.Killed)
	}
	if st.Submitted > generated {
		rep.fail("%s: submitted %d jobs but the generator emitted %d", label, st.Submitted, generated)
	}
	for r := 0; r < c.Rows(); r++ {
		truth := 0
		for _, sv := range c.Row(r) {
			if sv.Frozen() {
				truth++
			}
		}
		n := ctl.FrozenCount(r)
		if limit := int(maxFreezeRatio * float64(len(c.Row(r)))); n > limit {
			rep.fail("%s row %d: %d frozen, cap %d", label, r, n, limit)
		}
		if n != truth {
			rep.fail("%s row %d: controller tracks %d frozen, scheduler has %d", label, r, n, truth)
		}
	}
}

// checkDigestRepeats compares a run's digest with the one recorded by the
// first run of the same binary, workload, seed and window in this checkout,
// recording it when there is none. A mismatch fails the run.
func checkDigestRepeats(rep *report, o options, workload string, window int, digest string) {
	exe, err := exeHash()
	if err != nil {
		rep.note("digest repeat check skipped: %v", err)
		return
	}
	path := filepath.Join(o.outDir, "digests", fmt.Sprintf("%s-seed%d-win%d-%s", workload, o.seed, window, exe))
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			rep.fail("digest %s differs from %s recorded by an earlier run of this binary and seed", digest, got)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		rep.note("digest not recorded: %v", err)
		return
	}
	if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
		rep.note("digest not recorded: %v", err)
	}
}

func exeHash() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
