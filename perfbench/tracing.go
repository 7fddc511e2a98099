package main

import (
	"time"

	"roadrunner/internal/comm"
	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
)

// Layers timed from outside the program, at the strategy.Env boundary.
const (
	layerCallback  = iota // strategy callbacks, self time
	layerSend             // Env.Send
	layerEval             // Env.TestAccuracy
	layerAggregate        // Env.Aggregate
	layerNeighbors        // Env.Neighbors
	numLayers
)

// layerClock accumulates self time per layer: a span's duration minus the
// part its nested spans cover. The simulator calls strategies from one
// goroutine, so a plain stack suffices.
type layerClock struct {
	self  [numLayers]time.Duration
	calls [numLayers]int
	stack []frame
}

type frame struct {
	layer int
	start time.Time
	child time.Duration
}

func (c *layerClock) begin(layer int) {
	c.stack = append(c.stack, frame{layer: layer, start: time.Now()}) //roadlint:allow wallclock benchmark host timing of a layer boundary
}

func (c *layerClock) end() {
	top := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	d := time.Since(top.start) //roadlint:allow wallclock benchmark host timing of a layer boundary
	c.self[top.layer] += d - top.child
	c.calls[top.layer]++
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += d
	}
}

// tracedStrategy decorates a strategy: every callback is timed, and the
// inner strategy sees a tracedEnv instead of the simulator's Env. It
// forwards every call unchanged, so a traced run must reproduce the
// untraced run's canonical bytes exactly; the benchmark checks that it
// does.
type tracedStrategy struct {
	inner       strategy.Strategy
	clock       *layerClock
	env         *tracedEnv
	encounters  int // OnEncounter callbacks
	sendRefused int // Send calls that could not start
}

func newTracedStrategy(inner strategy.Strategy) *tracedStrategy {
	return &tracedStrategy{inner: inner, clock: &layerClock{}}
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Start(env strategy.Env) error {
	s.env = &tracedEnv{Env: env, s: s}
	s.clock.begin(layerCallback)
	defer s.clock.end()
	return s.inner.Start(s.env)
}

func (s *tracedStrategy) OnDeliver(_ strategy.Env, msg *comm.Message, p strategy.Payload) {
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnDeliver(s.env, msg, p)
}

func (s *tracedStrategy) OnSendFailed(_ strategy.Env, msg *comm.Message, p strategy.Payload, reason error) {
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnSendFailed(s.env, msg, p, reason)
}

func (s *tracedStrategy) OnTrainDone(_ strategy.Env, id sim.AgentID, trained *ml.Snapshot, loss float64) {
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnTrainDone(s.env, id, trained, loss)
}

func (s *tracedStrategy) OnTrainAborted(_ strategy.Env, id sim.AgentID) {
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnTrainAborted(s.env, id)
}

func (s *tracedStrategy) OnEncounter(_ strategy.Env, a, b sim.AgentID) {
	s.encounters++
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnEncounter(s.env, a, b)
}

func (s *tracedStrategy) OnPowerChange(_ strategy.Env, id sim.AgentID, on bool) {
	s.clock.begin(layerCallback)
	defer s.clock.end()
	s.inner.OnPowerChange(s.env, id, on)
}

// tracedEnv times the Env calls that do a layer's work and wraps the
// closures passed to After, which run later as strategy code.
type tracedEnv struct {
	strategy.Env
	s *tracedStrategy
}

func (e *tracedEnv) Send(from, to sim.AgentID, kind comm.Kind, p strategy.Payload) (comm.MsgID, error) {
	e.s.clock.begin(layerSend)
	id, err := e.Env.Send(from, to, kind, p)
	e.s.clock.end()
	if err != nil {
		e.s.sendRefused++
	}
	return id, err
}

func (e *tracedEnv) TestAccuracy(m *ml.Snapshot) (float64, error) {
	e.s.clock.begin(layerEval)
	defer e.s.clock.end()
	return e.Env.TestAccuracy(m)
}

func (e *tracedEnv) Aggregate(models []*ml.Snapshot, weights []float64) (*ml.Snapshot, error) {
	e.s.clock.begin(layerAggregate)
	defer e.s.clock.end()
	return e.Env.Aggregate(models, weights)
}

func (e *tracedEnv) Neighbors(id sim.AgentID) []sim.AgentID {
	e.s.clock.begin(layerNeighbors)
	defer e.s.clock.end()
	return e.Env.Neighbors(id)
}

func (e *tracedEnv) After(d sim.Duration, fn func()) error {
	return e.Env.After(d, func() {
		e.s.clock.begin(layerCallback)
		defer e.s.clock.end()
		fn()
	})
}
