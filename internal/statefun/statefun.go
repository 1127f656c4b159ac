// Package statefun implements Stateful Functions on streaming dataflows —
// the Flink Statefun / SFaaS design of §3.1: developers write functions
// addressed by (type, id); each function owns scoped state co-located with
// execution; functions exchange asynchronous messages; and the runtime
// provides exactly-once processing by integrating state updates with the
// message log (§4.2: "Statefun ... manages state updates and messages in an
// integrated manner, transparently rewinding the application state ... it
// achieves exactly-once processing and atomicity as a consequence.
// However, there is no transactional isolation across Statefun entities.").
//
// Architecture: one dataflow job over an internal message topic. An ingress
// relay copies external messages into the internal topic with a broker
// transaction (exactly-once). Function-to-function sends append to the
// internal topic with deterministic idempotent-producer sequence numbers
// derived from the consumed record's coordinates, so crash-replay re-sends
// are deduplicated by the broker — exactly-once function messaging without
// any application code.
//
// Every message travels as an envelope in the shared binary field codec
// (internal/wire): the four length-prefixed address strings, then the
// payload bytes, with no text encoding and no base64 step. Functions can
// encode their own payloads with the same codec.
//
// The missing transactional isolation across functions is not a bug: it is
// the exact gap experiment E7 demonstrates, and the one internal/core
// closes.
package statefun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/dataflow"
	"tca/internal/metrics"
	"tca/internal/mq"
	"tca/internal/wire"
)

// Common runtime errors.
var (
	ErrNoFunction   = errors.New("statefun: no registered function type")
	ErrTooManySends = errors.New("statefun: too many sends in one invocation")
	ErrNotRunning   = errors.New("statefun: app not running")
)

// MaxSends bounds function fan-out per consumed message; the deterministic
// idempotence scheme reserves this many sequence numbers per input record.
// Wider fan-outs are not a runtime feature but a choreography pattern:
// send up to MaxSends-1 messages, reserve the last slot for a SendSelf
// continuation, and resume from the continuation's own invocation. Each
// continuation round is driven by its own consumed record (a fresh offset
// on the internal topic), so the per-record sequence space
// origin.Offset*MaxSends+sends stays collision-free across rounds — no
// extension of the idempotence scheme is needed, only the reserved slot.
const MaxSends = 32

// Ref addresses a function instance.
type Ref struct {
	Type string
	ID   string
}

func (r Ref) String() string { return r.Type + "/" + r.ID }

// envelope is one message on the ingress and internal topics. Its wire
// form (internal/wire) is the four address strings To.Type, To.ID,
// From.Type and From.ID, each length-prefixed, followed by the payload
// bytes up to the end of the record; From is empty for ingress messages.
type envelope struct {
	To      Ref
	From    Ref
	Payload []byte
}

// encodeEnvelope is the wire form of an envelope: the four address
// strings, then the payload up to the end of the record.
func encodeEnvelope(to, from Ref, payload []byte) []byte {
	n := len(to.Type) + len(to.ID) + len(from.Type) + len(from.ID) + len(payload) + 4*binary.MaxVarintLen32
	b := make([]byte, 0, n)
	b = wire.AppendString(b, to.Type)
	b = wire.AppendString(b, to.ID)
	b = wire.AppendString(b, from.Type)
	b = wire.AppendString(b, from.ID)
	return append(b, payload...)
}

// decodeEnvelope parses an envelope; the payload aliases b.
func decodeEnvelope(b []byte) (envelope, error) {
	d := wire.NewDecoder(b)
	env := envelope{
		To:   Ref{Type: d.String(), ID: d.String()},
		From: Ref{Type: d.String(), ID: d.String()},
	}
	env.Payload = d.Rest()
	return env, d.Err()
}

// Handler is the body of a stateful function.
type Handler func(ctx *Ctx, payload []byte) error

// Ctx is the per-invocation context of a function.
type Ctx struct {
	// Self is the function instance being invoked.
	Self Ref
	// Caller is the sending function (zero for ingress messages).
	Caller Ref

	app    *App
	op     *dataflow.OpCtx
	origin dataflow.Record
	sends  int
}

// stateKey prefixes user keys with the function address, giving each
// (type, id) its own scoped namespace within the instance's keyed state.
func (c *Ctx) stateKey(key string) string { return c.Self.String() + "\x00" + key }

// Get reads a key of the function's scoped state.
func (c *Ctx) Get(key string) ([]byte, bool) {
	return c.op.State().Get(c.stateKey(key))
}

// Set writes a key of the function's scoped state. The update is covered by
// the job's checkpoints: state and message progress commit together.
func (c *Ctx) Set(key string, value []byte) {
	c.op.State().Put(c.stateKey(key), value)
}

// Del removes a key of the function's scoped state.
func (c *Ctx) Del(key string) {
	c.op.State().Delete(c.stateKey(key))
}

// Send delivers a message to another function, exactly once even across
// crash-replay (deterministic idempotent produce).
func (c *Ctx) Send(to Ref, payload []byte) error {
	if c.sends >= MaxSends {
		return fmt.Errorf("%w: > %d", ErrTooManySends, MaxSends)
	}
	seq := c.origin.Offset*MaxSends + int64(c.sends)
	c.sends++
	_, err := c.app.broker.ProduceIdempotent(c.app.internal, to.String(),
		encodeEnvelope(to, c.Self, payload), c.app.producerIDs[c.origin.Partition], seq)
	return err
}

// SendSelf delivers a message to the invoked instance itself — the
// continuation primitive for multi-round choreographies. The message is
// keyed like any other send, so it lands on the same partition and sees
// the same scoped state, and it is exactly-once like any other send: a
// crash between rounds replays the round that produced the continuation,
// and the broker dedups the re-produce.
func (c *Ctx) SendSelf(payload []byte) error { return c.Send(c.Self, payload) }

// SendsRemaining returns how many sends this invocation may still make
// before Send returns ErrTooManySends. Choreographies that fan out wider
// than the budget chunk on it: send SendsRemaining()-1 messages, then one
// SendSelf continuation to claim a fresh budget.
func (c *Ctx) SendsRemaining() int { return MaxSends - c.sends }

// SendEgress emits a record to the app's egress. With an egress topic the
// delivery is exactly-once (committed at checkpoints); with a callback it
// is at-least-once.
func (c *Ctx) SendEgress(key string, value []byte) {
	c.op.Emit(key, value)
}

// Config describes a statefun application.
type Config struct {
	// Name identifies the app (topics are derived from it).
	Name string
	// Parallelism is the number of partitions/instances. Zero means 4.
	Parallelism int
	// Ingress is the external input topic (created if needed).
	Ingress string
	// Egress is the exactly-once output topic ("" = use OnEgress).
	Egress string
	// OnEgress is the at-least-once callback sink used when Egress is "".
	OnEgress func(key string, value []byte)
}

// App is a stateful-functions application.
type App struct {
	cfg    Config
	broker *mq.Broker
	job    *dataflow.Job

	// internal is the function-to-function topic; producerIDs[p] is the
	// idempotent producer of sends made while consuming its partition p.
	internal    string
	producerIDs []string
	// dropped counts records dispatch discards (statefun.dropped).
	dropped *metrics.Counter

	mu      sync.RWMutex
	fns     map[string]Handler
	running bool

	relayStop chan struct{}
	relayWG   sync.WaitGroup
}

// NewApp creates an application over the broker.
func NewApp(broker *mq.Broker, cfg Config) *App {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	a := &App{cfg: cfg, broker: broker, fns: make(map[string]Handler), internal: cfg.Name + "-internal"}
	broker.CreateTopic(cfg.Ingress, cfg.Parallelism)
	broker.CreateTopic(a.internal, cfg.Parallelism)
	// A topic that already existed keeps its partition count, so size the
	// producer ids by the topic, not by the config.
	parts, _ := broker.Partitions(a.internal)
	a.producerIDs = make([]string, parts)
	for p := range a.producerIDs {
		a.producerIDs[p] = fmt.Sprintf("%s-fn-p%d", cfg.Name, p)
	}
	if cfg.Egress != "" {
		broker.CreateTopic(cfg.Egress, cfg.Parallelism)
	}
	return a
}

// Register binds a function type to its handler.
func (a *App) Register(fnType string, h Handler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fns[fnType] = h
}

// Job exposes the underlying dataflow job (checkpoint control, metrics).
// Besides the engine's own instruments its registry holds the runtime's
// "statefun.dropped" counter: records dispatch discarded because they did
// not decode or addressed an unregistered function type.
func (a *App) Job() *dataflow.Job { return a.job }

// Start builds and launches the dataflow job and the ingress relay.
func (a *App) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return dataflow.ErrRunning
	}
	if a.job == nil {
		j := dataflow.NewJob(a.broker, dataflow.Config{Name: a.cfg.Name}).
			Source(a.internal).
			Stage("functions", a.cfg.Parallelism, a.dispatch)
		switch {
		case a.cfg.Egress != "":
			j.SinkTo(a.cfg.Egress)
		case a.cfg.OnEgress != nil:
			j.Sink(func(r dataflow.Record) { a.cfg.OnEgress(r.Key, r.Value) })
		default:
			j.Sink(func(dataflow.Record) {})
		}
		a.job = j
		a.dropped = j.Metrics().Counter("statefun.dropped")
	}
	if err := a.job.Start(); err != nil {
		return err
	}
	a.relayStop = make(chan struct{})
	a.relayWG.Add(1)
	go a.runRelay()
	a.running = true
	return nil
}

// dispatch decodes an envelope and invokes the target function. A record
// that does not decode, or that addresses an unregistered function type,
// is dropped and counted in statefun.dropped (a DLQ is application policy).
func (a *App) dispatch(op *dataflow.OpCtx, rec dataflow.Record) {
	env, err := decodeEnvelope(rec.Value)
	if err != nil {
		a.dropped.Inc()
		return
	}
	a.mu.RLock()
	h, ok := a.fns[env.To.Type]
	a.mu.RUnlock()
	if !ok {
		a.dropped.Inc()
		return
	}
	ctx := &Ctx{Self: env.To, Caller: env.From, app: a, op: op, origin: rec}
	_ = h(ctx, env.Payload) // handler errors are the function's own policy
}

// runRelay pumps ingress into the internal topic with exactly-once
// consume-transform-produce.
func (a *App) runRelay() {
	defer a.relayWG.Done()
	group := a.cfg.Name + "-relay"
	consumer, err := a.broker.NewConsumer(group, mq.AtLeastOnce, a.cfg.Ingress)
	if err != nil {
		return
	}
	producer := a.broker.NewTransactionalProducer(group)
	for {
		select {
		case <-a.relayStop:
			return
		default:
		}
		msgs, err := consumer.Poll(64)
		if err != nil || len(msgs) == 0 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err := producer.Begin(); err != nil {
			return // fenced by a newer relay instance
		}
		for _, m := range msgs {
			producer.Send(a.internal, m.Key, m.Value)
		}
		producer.SendOffsets(group, consumer.PendingOffsets())
		if err := producer.Commit(); err != nil {
			return
		}
		consumer.ClearPending()
	}
}

// SendToIngress enqueues an external message for a function.
func (a *App) SendToIngress(to Ref, payload []byte) error {
	p := a.broker.NewProducer("")
	_, _, err := p.Send(a.cfg.Ingress, to.String(), encodeEnvelope(to, Ref{}, payload))
	return err
}

// WaitIdle blocks until ingress, internal traffic, and in-flight records
// drain.
func (a *App) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		// Ingress relay lag.
		for p := 0; p < a.cfg.Parallelism; p++ {
			tp := mq.TopicPartition{Topic: a.cfg.Ingress, Partition: p}
			hw, err := a.broker.HighWater(tp)
			if err == nil && hw > a.broker.CommittedOffset(a.cfg.Name+"-relay", tp) {
				idle = false
			}
		}
		if a.job != nil && a.job.Lag() != 0 {
			idle = false
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("statefun: not idle after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TriggerCheckpoint checkpoints the app (state + progress + egress commit).
func (a *App) TriggerCheckpoint() (uint64, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if !a.running {
		return 0, ErrNotRunning
	}
	return a.job.TriggerCheckpoint()
}

// Crash simulates a process failure of the whole app (job + relay).
func (a *App) Crash() {
	if job := a.prepareShutdown(); job != nil {
		job.Crash()
	}
}

// Recover restarts from the last completed checkpoint.
func (a *App) Recover() error { return a.Start() }

// Stop halts the app gracefully.
func (a *App) Stop() {
	if job := a.prepareShutdown(); job != nil {
		job.Stop()
	}
}

// prepareShutdown stops the relay and flips the running flag, returning the
// job to halt — without holding a.mu, which dispatch (running inside the
// job's instance goroutines) also acquires.
func (a *App) prepareShutdown() *dataflow.Job {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return nil
	}
	a.running = false
	stop := a.relayStop
	job := a.job
	a.mu.Unlock()
	close(stop)
	a.relayWG.Wait()
	return job
}
