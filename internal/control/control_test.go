package control

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// plant is a deterministic monotone plant: signal = gain * knob, with the
// gain adjustable mid-test to model a load step.
type plant struct {
	mu   sync.Mutex
	gain float64
	knob float64
}

func (p *plant) read() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gain * p.knob
}

func (p *plant) apply(v float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.knob = v
	return nil
}

func (p *plant) setGain(g float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gain = g
}

func newPlantController(t *testing.T, mode Mode, p *plant, initial float64) *Controller {
	t.Helper()
	c, err := New(Config{
		Name:    "test",
		Mode:    mode,
		Target:  100,
		Band:    0.1,
		Min:     1,
		Max:     1000,
		Initial: initial,
		Step:    5,
		Read:    p.read,
		Apply:   p.apply,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// run ticks until converged or maxTicks, returning ticks used.
func run(t *testing.T, c *Controller, clk *simclock.Sim, maxTicks int) int {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		clk.Advance(time.Second)
		c.Tick(clk.Now())
		if c.State().Converged {
			return i + 1
		}
	}
	t.Fatalf("not converged after %d ticks: %+v", maxTicks, c.State())
	return maxTicks
}

func TestConfigValidation(t *testing.T) {
	read := func() float64 { return 0 }
	apply := func(float64) error { return nil }
	good := Config{Name: "k", Target: 10, Band: 0.1, Min: 0, Max: 100, Initial: 5, Step: 1, Read: read, Apply: apply}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Read = nil },
		func(c *Config) { c.Apply = nil },
		func(c *Config) { c.Target = 0 },
		func(c *Config) { c.Band = 0 },
		func(c *Config) { c.Band = 1 },
		func(c *Config) { c.Min = 200 },
		func(c *Config) { c.Initial = -1 },
		func(c *Config) { c.Step = 0 },
		func(c *Config) { c.Backoff = 1.5 },
	}
	for i, mut := range cases {
		bad := good
		mut(&bad)
		if _, err := New(bad); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: want ErrBadConfig, got %v", i, err)
		}
	}
}

// Step up: plant starts starved (knob too low), controller must climb into
// band and converge, for both modes.
func TestStepUpConverges(t *testing.T) {
	for _, mode := range []Mode{AIMD, HillClimb} {
		t.Run(mode.String(), func(t *testing.T) {
			p := &plant{gain: 1, knob: 10}
			c := newPlantController(t, mode, p, 10)
			clk := simclock.NewSim(simclock.Epoch)
			run(t, c, clk, 100)
			sig := p.read()
			if sig < 90 || sig > 110 {
				t.Fatalf("converged outside band: signal=%v", sig)
			}
		})
	}
}

// Step down: knob starts too high; both modes must back off into band.
func TestStepDownConverges(t *testing.T) {
	for _, mode := range []Mode{AIMD, HillClimb} {
		t.Run(mode.String(), func(t *testing.T) {
			p := &plant{gain: 1, knob: 400}
			c := newPlantController(t, mode, p, 400)
			clk := simclock.NewSim(simclock.Epoch)
			run(t, c, clk, 200)
			sig := p.read()
			if sig < 90 || sig > 110 {
				t.Fatalf("converged outside band: signal=%v", sig)
			}
		})
	}
}

// Load step mid-run: converge at gain 1, double the gain (2x load), and the
// controller must re-converge. Models SC6's step change.
func TestLoadStepReconverges(t *testing.T) {
	for _, mode := range []Mode{AIMD, HillClimb} {
		t.Run(mode.String(), func(t *testing.T) {
			p := &plant{gain: 1, knob: 50}
			c := newPlantController(t, mode, p, 50)
			clk := simclock.NewSim(simclock.Epoch)
			run(t, c, clk, 100)
			p.setGain(2) // load doubles: same knob now yields twice the signal
			for i := 0; i < 200; i++ {
				clk.Advance(time.Second)
				c.Tick(clk.Now())
				if c.State().Converged {
					break
				}
			}
			st := c.State()
			if !st.Converged {
				t.Fatalf("did not re-converge after load step: %+v", st)
			}
			sig := p.read()
			if sig < 90 || sig > 110 {
				t.Fatalf("re-converged outside band: signal=%v", sig)
			}
		})
	}
}

// Noisy plateau: signal oscillates inside the band; the knob must never
// move (no oscillation chasing noise).
func TestNoisyPlateauHolds(t *testing.T) {
	for _, mode := range []Mode{AIMD, HillClimb} {
		t.Run(mode.String(), func(t *testing.T) {
			i := 0
			noise := []float64{95, 105, 98, 102, 91, 109, 100}
			var applied int
			c, err := New(Config{
				Name: "noisy", Mode: mode,
				Target: 100, Band: 0.1, Min: 1, Max: 1000, Initial: 50, Step: 5,
				Read:  func() float64 { v := noise[i%len(noise)]; i++; return v },
				Apply: func(float64) error { applied++; return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			clk := simclock.NewSim(simclock.Epoch)
			for k := 0; k < 50; k++ {
				clk.Advance(time.Second)
				if c.Tick(clk.Now()) {
					t.Fatalf("tick %d moved the knob on in-band noise", k)
				}
			}
			if applied != 0 {
				t.Fatalf("Apply called %d times on in-band noise", applied)
			}
			if st := c.State(); !st.Converged {
				t.Fatalf("noisy plateau should read as converged: %+v", st)
			}
		})
	}
}

// Unreachable target: signal pinned above band even at Min. The knob must
// clamp at Min and the post-clamp amplitude must be zero — bounded
// oscillation by construction.
func TestClampedAtBoundConverges(t *testing.T) {
	p := &plant{gain: 10, knob: 50} // even knob=Min=1 gives signal 10 > hi? no: 10*1=10 < 90 band low... use high gain
	p.gain = 200                    // knob=1 -> 200 > 110: always above band
	c := newPlantController(t, AIMD, p, 50)
	clk := simclock.NewSim(simclock.Epoch)
	run(t, c, clk, 100)
	if got := c.Knob(); got != 1 {
		t.Fatalf("knob should clamp at Min=1, got %v", got)
	}
	// Post-convergence: further ticks must not move the knob at all.
	for i := 0; i < 20; i++ {
		clk.Advance(time.Second)
		if c.Tick(clk.Now()) {
			t.Fatal("knob moved after clamping at bound")
		}
	}
}

// Bounded oscillation: after convergence on a reachable target, peak-to-peak
// knob amplitude over a long tail stays within one step + one backoff.
func TestPostConvergenceAmplitudeBounded(t *testing.T) {
	for _, mode := range []Mode{AIMD, HillClimb} {
		t.Run(mode.String(), func(t *testing.T) {
			p := &plant{gain: 1, knob: 10}
			c := newPlantController(t, mode, p, 10)
			clk := simclock.NewSim(simclock.Epoch)
			run(t, c, clk, 200)
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < 100; i++ {
				clk.Advance(time.Second)
				c.Tick(clk.Now())
				k := c.Knob()
				lo = math.Min(lo, k)
				hi = math.Max(hi, k)
			}
			// One step up (5) plus one backoff worth of swing is the
			// structural bound; a converged plant should not even do that.
			if hi-lo > 5+0.5*hi {
				t.Fatalf("post-convergence amplitude %v unbounded (lo=%v hi=%v)", hi-lo, lo, hi)
			}
		})
	}
}

// Apply errors freeze the knob and surface in State.LastErr; streak resets.
func TestApplyErrorFreezes(t *testing.T) {
	boom := errors.New("knob stuck")
	c, err := New(Config{
		Name: "stuck", Target: 100, Band: 0.1, Min: 1, Max: 1000, Initial: 10, Step: 5,
		Read:  func() float64 { return 10 }, // starved: wants to move up
		Apply: func(float64) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewSim(simclock.Epoch)
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		if c.Tick(clk.Now()) {
			t.Fatal("tick reported a move despite Apply error")
		}
	}
	st := c.State()
	if st.Knob != 10 {
		t.Fatalf("knob moved despite Apply error: %v", st.Knob)
	}
	if st.LastErr == "" {
		t.Fatal("Apply error not surfaced in State.LastErr")
	}
	if st.Converged {
		t.Fatal("a controller that cannot apply its move must not report converged")
	}
}

// Neutral reading (Read returns Target) holds the knob still.
func TestNeutralReadingHolds(t *testing.T) {
	var applied int
	c, err := New(Config{
		Name: "idle", Target: 100, Band: 0.1, Min: 1, Max: 1000, Initial: 10, Step: 5,
		Read:  func() float64 { return 100 },
		Apply: func(float64) error { applied++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.NewSim(simclock.Epoch)
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		c.Tick(clk.Now())
	}
	if applied != 0 {
		t.Fatalf("neutral readings applied %d moves", applied)
	}
}

// Group: Tick steps every controller; States snapshots in order; the
// background loop on simclock advances deterministically and Stop joins.
func TestGroupTickAndStates(t *testing.T) {
	p1 := &plant{gain: 1, knob: 10}
	p2 := &plant{gain: 1, knob: 400}
	c1 := newPlantController(t, AIMD, p1, 10)
	c2 := newPlantController(t, HillClimb, p2, 400)
	clk := simclock.NewSim(simclock.Epoch)
	g := NewGroup(clk, time.Second, c1, c2)
	for i := 0; i < 150; i++ {
		clk.Advance(time.Second)
		g.Tick()
	}
	sts := g.States()
	if len(sts) != 2 || sts[0].Name != "test" || !sts[0].Converged || !sts[1].Converged {
		t.Fatalf("group did not converge both controllers: %+v", sts)
	}
}

// The background driver ticks the controllers off the simclock: advance,
// Sync, and the controller has stepped — with no real-time polling. (The
// Start/Stop lifecycle itself is simclock.Loop's, tested there.)
func TestGroupBackgroundLoopSimclock(t *testing.T) {
	p := &plant{gain: 1, knob: 10}
	c := newPlantController(t, AIMD, p, 10)
	clk := simclock.NewSim(simclock.Epoch)
	g := NewGroup(clk, time.Second, c)
	g.Start()
	defer g.Stop()
	for i := 1; i <= 30; i++ {
		clk.Advance(time.Second)
		g.Sync()
		if got := c.State().Ticks; got < uint64(i) {
			t.Fatalf("after %d advances: %d ticks", i, got)
		}
	}
	if st := c.State(); st.Adjusts == 0 || st.Knob <= 10 {
		t.Fatalf("background ticks never moved the knob: %+v", st)
	}
}

// Concurrent State/Knob readers against a ticking driver — exercised under
// -race in CI.
func TestConcurrentSnapshotsRace(t *testing.T) {
	p := &plant{gain: 1, knob: 10}
	c := newPlantController(t, AIMD, p, 10)
	clk := simclock.NewSim(simclock.Epoch)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.State()
					_ = c.Knob()
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		clk.Advance(time.Second)
		c.Tick(clk.Now())
	}
	close(stop)
	wg.Wait()
}
