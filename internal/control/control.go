// Package control is the self-tuning control plane: small feedback
// controllers that keep one runtime knob each near a target expressed over
// the counters the system already exports (group-commit occupancy from the
// journal stats, admitted-latency percentiles from the admission gate,
// expiry density from the sweeper, hit rate from the membrane cache).
//
// Two adjustment laws are provided, both assuming the observed signal is
// monotone non-decreasing in the knob (true of every knob wired here: a
// longer commit window coalesces more transactions per group, a deeper
// admission queue raises admitted latency, a longer sweep interval
// accumulates more expiries per pass, a bigger cache raises the hit rate):
//
//   - AIMD: signal below the target band -> knob += Step (additive
//     increase); above the band -> knob *= Backoff (multiplicative
//     decrease). The classic congestion-control law — cautious growth,
//     fast retreat — for knobs where overshoot is expensive (an admission
//     bound past the latency SLO, a commit window past the batch size).
//   - Hill-climb: fixed symmetric steps toward the band from either side.
//     For knobs where both directions cost the same (cache capacity,
//     sweep cadence) and the optimum is approached, not escaped.
//
// Controllers never free-run on goroutine timing: Tick is an explicit
// step, timestamped by the caller's clock, so simclock tests and the SC6
// experiment drive the loop deterministically. Group adds the background
// driver for production use — a simclock.Loop, the same one the retention
// sweeper runs on — plus the States snapshot the core API and rgpdctl
// surface.
//
// Oscillation is structurally bounded: each law moves at most one step (or
// one backoff) per tick, moves only while the signal is outside the band,
// and clamps to [Min, Max] — so once the signal is reachable the knob's
// post-convergence peak-to-peak amplitude is at most one step plus one
// backoff, never a growing swing. The step-response tests and SC6 assert
// exactly that.
package control

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Mode selects a controller's adjustment law.
type Mode int

const (
	// AIMD is additive-increase / multiplicative-decrease.
	AIMD Mode = iota
	// HillClimb is fixed symmetric stepping toward the band.
	HillClimb
)

// String names the mode for snapshots and tables.
func (m Mode) String() string {
	switch m {
	case AIMD:
		return "aimd"
	case HillClimb:
		return "hill-climb"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrBadConfig reports an invalid controller configuration.
var ErrBadConfig = errors.New("control: invalid controller config")

// DefaultConvergeAfter is how many consecutive no-move ticks declare
// convergence when Config.ConvergeAfter is zero.
const DefaultConvergeAfter = 3

// Config declares one feedback controller.
type Config struct {
	// Name identifies the controller (and its knob) in snapshots.
	Name string
	// Mode is the adjustment law.
	Mode Mode
	// Target is the setpoint for the observed signal; Band is the relative
	// half-width of the dead zone around it (0.1 = ±10%). Inside the band
	// the knob holds still.
	Target float64
	Band   float64
	// Min and Max clamp the knob; Initial is its starting value.
	Min, Max, Initial float64
	// Step is the additive increase (AIMD) or the symmetric step
	// (hill-climb), in knob units.
	Step float64
	// Backoff is AIMD's multiplicative decrease factor in (0, 1);
	// defaults to 0.5. Ignored by hill-climb.
	Backoff float64
	// ConvergeAfter is how many consecutive ticks without a knob move
	// declare the controller converged (default DefaultConvergeAfter).
	// A tick that holds because the signal is in band — or because the
	// knob is already clamped at the bound the signal is pushing it
	// toward — counts; any actual move resets the streak.
	ConvergeAfter int
	// Read observes the signal. Implementations that have nothing to
	// report this tick (no traffic in the window) should return Target:
	// a neutral reading holds the knob still instead of steering on
	// noise.
	Read func() float64
	// Apply pushes a new knob value into the system. An error freezes
	// the knob at its previous value (recorded in State.LastErr) rather
	// than advancing the controller's idea of it.
	Apply func(float64) error
}

func (cfg *Config) validate() error {
	switch {
	case cfg.Name == "":
		return fmt.Errorf("%w: empty name", ErrBadConfig)
	case cfg.Read == nil || cfg.Apply == nil:
		return fmt.Errorf("%w: %s: Read and Apply are required", ErrBadConfig, cfg.Name)
	case cfg.Target <= 0:
		return fmt.Errorf("%w: %s: target %v must be positive", ErrBadConfig, cfg.Name, cfg.Target)
	case cfg.Band <= 0 || cfg.Band >= 1:
		return fmt.Errorf("%w: %s: band %v must be in (0, 1)", ErrBadConfig, cfg.Name, cfg.Band)
	case cfg.Min > cfg.Max:
		return fmt.Errorf("%w: %s: min %v above max %v", ErrBadConfig, cfg.Name, cfg.Min, cfg.Max)
	case cfg.Initial < cfg.Min || cfg.Initial > cfg.Max:
		return fmt.Errorf("%w: %s: initial %v outside [%v, %v]", ErrBadConfig, cfg.Name, cfg.Initial, cfg.Min, cfg.Max)
	case cfg.Step <= 0:
		return fmt.Errorf("%w: %s: step %v must be positive", ErrBadConfig, cfg.Name, cfg.Step)
	}
	if cfg.Mode == AIMD && cfg.Backoff != 0 && (cfg.Backoff <= 0 || cfg.Backoff >= 1) {
		return fmt.Errorf("%w: %s: backoff %v must be in (0, 1)", ErrBadConfig, cfg.Name, cfg.Backoff)
	}
	return nil
}

// State is a snapshot of one controller, surfaced through
// core.System.Controllers() and rgpdctl status.
type State struct {
	Name string
	Mode Mode
	// Knob is the current knob value; Signal the last observed reading.
	Knob   float64
	Signal float64
	Target float64
	Band   float64
	// LastDelta is the knob change of the last tick that moved it (signed);
	// LastAdjust is that tick's timestamp.
	LastDelta  float64
	LastAdjust time.Time
	// Ticks counts Tick calls; Adjusts the subset that moved the knob.
	Ticks   uint64
	Adjusts uint64
	// Converged reports ConvergeAfter consecutive no-move ticks.
	Converged bool
	// LastErr is the message of the most recent Apply failure ("" = none).
	LastErr string
}

// Controller is one feedback loop. Safe for concurrent use; Tick, however,
// is typically called from a single driver (a Group or a test).
type Controller struct {
	cfg Config

	mu         sync.Mutex
	knob       float64
	signal     float64
	lastDelta  float64
	lastAdjust time.Time
	ticks      uint64
	adjusts    uint64
	holds      int // consecutive no-move ticks
	lastErr    error
}

// New validates the config and builds a controller. The Initial knob value
// is assumed to already be applied (it is read from the system, not pushed).
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 0.5
	}
	if cfg.ConvergeAfter <= 0 {
		cfg.ConvergeAfter = DefaultConvergeAfter
	}
	return &Controller{cfg: cfg, knob: cfg.Initial}, nil
}

// Name returns the controller's name.
func (c *Controller) Name() string { return c.cfg.Name }

// clamp bounds v to the knob range.
func (c *Controller) clamp(v float64) float64 {
	if v < c.cfg.Min {
		return c.cfg.Min
	}
	if v > c.cfg.Max {
		return c.cfg.Max
	}
	return v
}

// Tick runs one control step at instant now: observe the signal, decide,
// and apply any knob move. It reports whether the knob moved.
func (c *Controller) Tick(now time.Time) bool {
	sig := c.cfg.Read()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	c.signal = sig
	lo := c.cfg.Target * (1 - c.cfg.Band)
	hi := c.cfg.Target * (1 + c.cfg.Band)
	next := c.knob
	switch {
	case sig < lo:
		// Signal starved: push the knob up (monotone plant).
		next = c.clamp(c.knob + c.cfg.Step)
	case sig > hi:
		if c.cfg.Mode == AIMD {
			next = c.clamp(c.knob * c.cfg.Backoff)
		} else {
			next = c.clamp(c.knob - c.cfg.Step)
		}
	}
	if next == c.knob {
		// In band, or clamped at the bound the signal is pushing toward —
		// either way the controller can do no better: the hold streak
		// advances toward convergence.
		c.holds++
		return false
	}
	if err := c.cfg.Apply(next); err != nil {
		// Freeze: the system rejected the move; keep the old value as the
		// truth and surface the error. The streak resets — a controller
		// that wants to move but cannot is not converged.
		c.lastErr = err
		c.holds = 0
		return false
	}
	c.lastErr = nil
	c.lastDelta = next - c.knob
	c.knob = next
	c.lastAdjust = now
	c.adjusts++
	c.holds = 0
	return true
}

// State snapshots the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{
		Name:       c.cfg.Name,
		Mode:       c.cfg.Mode,
		Knob:       c.knob,
		Signal:     c.signal,
		Target:     c.cfg.Target,
		Band:       c.cfg.Band,
		LastDelta:  c.lastDelta,
		LastAdjust: c.lastAdjust,
		Ticks:      c.ticks,
		Adjusts:    c.adjusts,
		Converged:  c.ticks > 0 && c.holds >= c.cfg.ConvergeAfter,
	}
	if c.lastErr != nil {
		st.LastErr = c.lastErr.Error()
	}
	return st
}

// Knob returns the current knob value.
func (c *Controller) Knob() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.knob
}

// DefaultTickInterval is the Group cadence when none is configured.
const DefaultTickInterval = time.Second

// Group drives a set of controllers: explicit Tick for deterministic
// callers, or the embedded simclock.Loop (Start/Stop/Sync) ticking once per
// interval on the machine clock, so simclock tests advance it
// deterministically.
type Group struct {
	*simclock.Loop
	clock simclock.Clock
	cs    []*Controller
}

// NewGroup builds a driver over controllers. interval <= 0 means
// DefaultTickInterval.
func NewGroup(clock simclock.Clock, interval time.Duration, cs ...*Controller) *Group {
	if clock == nil {
		clock = simclock.Real{}
	}
	g := &Group{clock: clock, cs: cs}
	g.Loop = simclock.NewLoop(clock, DefaultTickInterval, g.tick, nil)
	g.SetInterval(interval)
	return g
}

// Controllers returns the driven controllers.
func (g *Group) Controllers() []*Controller { return g.cs }

// Tick steps every controller once at the current clock instant.
func (g *Group) Tick() { g.tick(g.clock.Now(), false) }

func (g *Group) tick(now time.Time, _ bool) {
	for _, c := range g.cs {
		c.Tick(now)
	}
}

// States snapshots every controller in registration order.
func (g *Group) States() []State {
	out := make([]State, len(g.cs))
	for i, c := range g.cs {
		out[i] = c.State()
	}
	return out
}
