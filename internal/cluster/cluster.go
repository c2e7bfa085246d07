// Package cluster models the physical data center the paper's controller
// manages: servers grouped into racks, racks into PDU-fed rows, rows into a
// data center. Each server draws power as a function of its utilization
// between an idle floor and a rated peak, can be frozen (refused new jobs),
// and can be power-capped (DVFS frequency scaling), exactly the three knobs
// the paper's evaluation exercises.
package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ServerID identifies a server within a Cluster. IDs are dense, starting at
// zero, assigned row-major (row, then rack, then slot) so that the paper's
// parity-based controlled-experiment grouping (§4.1.2) interleaves racks.
type ServerID int

// Spec describes the hardware and topology parameters of a cluster. The
// defaults follow the paper's §2.1 numbers: 250 W rated servers, 40 servers
// per 10 kW rack, 20 racks per row-level PDU.
type Spec struct {
	Rows           int
	RacksPerRow    int
	ServersPerRack int

	// RatedPowerW is the measured maximum power draw of one server (the
	// paper's "rated power", not the higher nameplate power).
	RatedPowerW float64
	// IdlePowerW is the draw of an idle server. Calibrated to 0.60 of
	// rated: the paper's Fig 4 shows frozen servers settling near 0.68 of
	// rated while still holding a tail of long jobs, and its Table 3 shows
	// whole rows as low as 0.65 of rated on light days, so true idle must
	// sit below that.
	IdlePowerW float64
	// Containers is the number of resource containers the two-level
	// scheduler can allocate on one server.
	Containers int
	// NoiseSigmaW and NoisePhi parameterize the AR(1) per-server power
	// measurement noise added to monitor samples.
	NoiseSigmaW float64
	NoisePhi    float64
	// RatedJitterFrac introduces manufacturing variance: each server's
	// rated and idle power are scaled by an independent uniform factor in
	// [1−j, 1+j]. The paper provisions on *measured* rated power precisely
	// because real fleets are not perfectly uniform. Zero (default) keeps
	// servers identical.
	RatedJitterFrac float64
}

// DefaultSpec returns the paper-faithful topology: one row of 20 racks by
// default (the controlled experiments use a single row with 400+ servers).
func DefaultSpec() Spec {
	return Spec{
		Rows:           1,
		RacksPerRow:    20,
		ServersPerRack: 20,
		RatedPowerW:    250,
		IdlePowerW:     150,
		Containers:     16,
		NoiseSigmaW:    2.0,
		NoisePhi:       0.5,
	}
}

// Validate reports configuration errors.
func (sp Spec) Validate() error {
	switch {
	case sp.Rows <= 0 || sp.RacksPerRow <= 0 || sp.ServersPerRack <= 0:
		return fmt.Errorf("cluster: topology must be positive, got %d×%d×%d",
			sp.Rows, sp.RacksPerRow, sp.ServersPerRack)
	case sp.RatedPowerW <= 0:
		return fmt.Errorf("cluster: rated power %v must be positive", sp.RatedPowerW)
	case sp.IdlePowerW < 0 || sp.IdlePowerW >= sp.RatedPowerW:
		return fmt.Errorf("cluster: idle power %v must be in [0, rated %v)", sp.IdlePowerW, sp.RatedPowerW)
	case sp.Containers <= 0:
		return fmt.Errorf("cluster: containers %d must be positive", sp.Containers)
	case sp.NoiseSigmaW < 0:
		return fmt.Errorf("cluster: noise sigma %v must be non-negative", sp.NoiseSigmaW)
	case sp.RatedJitterFrac < 0 || sp.RatedJitterFrac >= 0.5:
		return fmt.Errorf("cluster: rated jitter %v outside [0, 0.5)", sp.RatedJitterFrac)
	}
	return nil
}

// ServersPerRow returns the number of servers on one row.
func (sp Spec) ServersPerRow() int { return sp.RacksPerRow * sp.ServersPerRack }

// TotalServers returns the number of servers in the whole cluster.
func (sp Spec) TotalServers() int { return sp.Rows * sp.ServersPerRow() }

// RowRatedPowerW returns the total rated power of one row's servers; with
// rated-power provisioning this equals the row's PDU budget (PM = n·Pm).
func (sp Spec) RowRatedPowerW() float64 {
	return float64(sp.ServersPerRow()) * sp.RatedPowerW
}

// Server is one machine. Its fields are managed by the scheduler (busy,
// frozen), the capping subsystem (speed, cap), and the workload executor;
// the power monitor reads it.
type Server struct {
	ID   ServerID
	Row  int
	Rack int // rack index within the row

	spec *Spec
	// ratedW and idleW are this server's measured power parameters (equal
	// to the spec values unless RatedJitterFrac is set).
	ratedW, idleW float64

	busy    int     // allocated containers
	cpuLoad float64 // sum of running jobs' CPU demand, in container units
	frozen  bool
	failed  bool // powered off (breaker trip / outage)

	speed     float64 // DVFS frequency factor in (0, 1]; 1 = full speed
	capLevelW float64 // 0 means uncapped

	noise *stats.AR1

	speedListeners []*speedListener
}

// speedListener wraps a speed-change callback so detaching can find its own
// registration by identity (func values are not comparable).
type speedListener struct {
	fn func(s *Server, oldSpeed float64)
}

// Spec returns the cluster spec the server was built with.
func (s *Server) Spec() *Spec { return s.spec }

// Busy returns the number of allocated containers.
func (s *Server) Busy() int { return s.busy }

// FreeContainers returns the number of unallocated containers.
func (s *Server) FreeContainers() int { return s.spec.Containers - s.busy }

// Frozen reports whether the server is advised out of the candidate list.
func (s *Server) Frozen() bool { return s.frozen }

// SetFrozen marks or unmarks the server as frozen. Freezing never touches
// running jobs; it only affects future placement (the paper's key property).
func (s *Server) SetFrozen(f bool) { s.frozen = f }

// Failed reports whether the server is powered off (a breaker trip is the
// "catastrophic service disruption" §2.1 warns about).
func (s *Server) Failed() bool { return s.failed }

// SetFailed powers the server off or back on. The scheduler owns the job
// consequences (killing and restoring); this only flips the electrical
// state: a failed server draws no power.
func (s *Server) SetFailed(f bool) { s.failed = f }

// Allocate reserves n containers carrying the given total CPU demand
// (in container units). It panics when over-allocated: placement above
// capacity is a scheduler bug, not a runtime condition.
func (s *Server) Allocate(n int, cpu float64) {
	if n < 0 || s.busy+n > s.spec.Containers {
		panic(fmt.Sprintf("cluster: allocating %d containers on server %d with %d busy of %d",
			n, s.ID, s.busy, s.spec.Containers))
	}
	s.busy += n
	s.cpuLoad += cpu
}

// Release frees n containers and cpu demand previously allocated.
func (s *Server) Release(n int, cpu float64) {
	if n < 0 || s.busy-n < 0 {
		panic(fmt.Sprintf("cluster: releasing %d containers on server %d with %d busy", n, s.ID, s.busy))
	}
	s.busy -= n
	s.cpuLoad -= cpu
	if s.cpuLoad < 1e-9 {
		s.cpuLoad = 0
	}
}

// Utilization returns the CPU utilization in [0, 1].
func (s *Server) Utilization() float64 {
	u := s.cpuLoad / float64(s.spec.Containers)
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}

// RatedW returns this server's measured rated power.
func (s *Server) RatedW() float64 { return s.ratedW }

// IdleW returns this server's idle power.
func (s *Server) IdleW() float64 { return s.idleW }

// DemandW is the power the server wants to draw at full frequency: a linear
// function of utilization between idle and rated power. A failed server
// draws nothing.
func (s *Server) DemandW() float64 {
	if s.failed {
		return 0
	}
	return s.idleW + (s.ratedW-s.idleW)*s.Utilization()
}

// DrawW is the power actually drawn after capping clamps the demand.
func (s *Server) DrawW() float64 {
	d := s.DemandW()
	if s.capLevelW > 0 && d > s.capLevelW {
		return s.capLevelW
	}
	return d
}

// SamplePower returns one monitor measurement: the draw plus one step of the
// AR(1) measurement-noise process, floored at zero. Call once per sampling
// interval; repeated calls advance the noise process.
func (s *Server) SamplePower() float64 {
	p := s.DrawW()
	if s.noise != nil {
		p += s.noise.Next()
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Speed returns the DVFS frequency factor in (0, 1].
func (s *Server) Speed() float64 { return s.speed }

// Capped reports whether a power cap is currently applied.
func (s *Server) Capped() bool { return s.capLevelW > 0 }

// CapLevelW returns the active cap in watts, or 0 when uncapped.
func (s *Server) CapLevelW() float64 { return s.capLevelW }

// ApplyCap clamps the server's power draw to levelW and derives the
// frequency factor DVFS must drop to so demand fits under the cap. The
// factor scales the active (above-idle) power linearly with frequency.
func (s *Server) ApplyCap(levelW float64) {
	if levelW <= 0 {
		panic(fmt.Sprintf("cluster: non-positive cap %v on server %d", levelW, s.ID))
	}
	old := s.speed
	s.capLevelW = levelW
	d := s.DemandW()
	switch {
	case d <= levelW:
		s.speed = 1
	case levelW <= s.idleW:
		// Cap below idle: hardware floors at a minimum frequency; model as 10%.
		s.speed = 0.1
	default:
		s.speed = (levelW - s.idleW) / (d - s.idleW)
		if s.speed < 0.1 {
			s.speed = 0.1
		}
	}
	s.notifySpeed(old)
}

// RemoveCap restores full frequency.
func (s *Server) RemoveCap() {
	old := s.speed
	s.capLevelW = 0
	s.speed = 1
	s.notifySpeed(old)
}

// OnSpeedChange registers a listener notified whenever the DVFS frequency
// factor changes. The job executor uses it to reschedule in-flight
// completions; the interactive-service substrate uses it to stretch request
// service times. Listeners run in registration order. The returned detach
// func removes the listener (idempotent); a discarded subscriber must call
// it, or the server keeps invoking the stale callback forever. Detaching
// from within a speed notification is not supported.
func (s *Server) OnSpeedChange(fn func(s *Server, oldSpeed float64)) (detach func()) {
	l := &speedListener{fn: fn}
	s.speedListeners = append(s.speedListeners, l)
	return func() {
		for i, x := range s.speedListeners {
			if x == l {
				s.speedListeners = append(s.speedListeners[:i], s.speedListeners[i+1:]...)
				return
			}
		}
	}
}

func (s *Server) notifySpeed(old float64) {
	if s.speed == old {
		return
	}
	for _, l := range s.speedListeners {
		l.fn(s, old)
	}
}

// Cluster is the full topology.
type Cluster struct {
	Spec    Spec
	Servers []*Server
	rows    [][]*Server // rows[r] = servers on row r
	// racks[r*RacksPerRow+k] = servers of rack k on row r. Each entry is a
	// subslice of rows[r] (construction is rack-contiguous), so the rack-major
	// index costs no extra storage and preserves ID iteration order.
	racks [][]*Server
}

// New builds a cluster from spec, seeding each server's measurement-noise
// stream from the master seed.
func New(spec Spec, seed uint64) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Spec: spec}
	c.Servers = make([]*Server, 0, spec.TotalServers())
	c.rows = make([][]*Server, spec.Rows)
	c.racks = make([][]*Server, spec.Rows*spec.RacksPerRow)
	id := ServerID(0)
	for r := 0; r < spec.Rows; r++ {
		row := make([]*Server, 0, spec.ServersPerRow())
		for k := 0; k < spec.RacksPerRow; k++ {
			for j := 0; j < spec.ServersPerRack; j++ {
				var noise *stats.AR1
				if spec.NoiseSigmaW > 0 {
					rng := sim.SubRNG(seed, fmt.Sprintf("server-noise-%d", id))
					noise = stats.NewAR1(spec.NoisePhi, spec.NoiseSigmaW, rng)
				}
				jitter := 1.0
				if spec.RatedJitterFrac > 0 {
					jrng := sim.SubRNG(seed, fmt.Sprintf("server-jitter-%d", id))
					jitter = 1 + (jrng.Float64()*2-1)*spec.RatedJitterFrac
				}
				s := &Server{
					ID: id, Row: r, Rack: k, spec: &c.Spec, speed: 1, noise: noise,
					ratedW: spec.RatedPowerW * jitter,
					idleW:  spec.IdlePowerW * jitter,
				}
				c.Servers = append(c.Servers, s)
				row = append(row, s)
				id++
			}
		}
		c.rows[r] = row
		for k := 0; k < spec.RacksPerRow; k++ {
			c.racks[r*spec.RacksPerRow+k] = row[k*spec.ServersPerRack : (k+1)*spec.ServersPerRack]
		}
	}
	return c, nil
}

// Row returns the servers on row r.
func (c *Cluster) Row(r int) []*Server { return c.rows[r] }

// RowIDs returns the IDs of row r's servers, in ID order, as a fresh slice
// the caller owns.
func (c *Cluster) RowIDs(r int) []ServerID {
	row := c.rows[r]
	ids := make([]ServerID, len(row))
	for i, sv := range row {
		ids[i] = sv.ID
	}
	return ids
}

// Rack returns the servers of rack k on row r, in ID order.
func (c *Cluster) Rack(r, k int) []*Server { return c.racks[r*c.Spec.RacksPerRow+k] }

// Rows returns the number of rows.
func (c *Cluster) Rows() int { return len(c.rows) }

// Server returns the server with the given ID.
func (c *Cluster) Server(id ServerID) *Server { return c.Servers[id] }

// MeasuredRowRatedW returns the sum of row r's servers' measured rated
// powers — what rated-power provisioning actually adds up in a jittered
// fleet (equals Spec.RowRatedPowerW with zero jitter).
func (c *Cluster) MeasuredRowRatedW(r int) float64 {
	var sum float64
	for _, s := range c.rows[r] {
		sum += s.ratedW
	}
	return sum
}

// RowDrawW returns the instantaneous true power draw of row r (sum of server
// draws, before measurement noise). The PDU breaker and the capping safety
// net act on this quantity.
func (c *Cluster) RowDrawW(r int) float64 {
	var sum float64
	for _, s := range c.rows[r] {
		sum += s.DrawW()
	}
	return sum
}

// RackDrawW returns the true draw of rack k on row r. The rack-major index
// makes this O(servers-per-rack) rather than a filtered scan of the whole
// row; iteration stays in ID order, so the floating-point sum is identical
// to the historical scan.
func (c *Cluster) RackDrawW(r, k int) float64 {
	var sum float64
	for _, s := range c.Rack(r, k) {
		sum += s.DrawW()
	}
	return sum
}

// TotalDrawW returns the true draw of the whole data center.
func (c *Cluster) TotalDrawW() float64 {
	var sum float64
	for r := range c.rows {
		sum += c.RowDrawW(r)
	}
	return sum
}
