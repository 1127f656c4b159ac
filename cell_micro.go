package tca

import (
	"fmt"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/micro"
	"tca/internal/rpc"
	"tca/internal/saga"
	"tca/internal/store"
)

// microShards is the number of key-shard services a micro cell deploys —
// database-per-service, keys hash-routed (the even/odd account split of
// the original bank, generalized).
const microShards = 2

// microCell deploys an App on the status-quo stack: stateless services
// with per-service databases behind REST. The body's Gets are plain RPC
// reads with no coordination (dirty reads between saga steps are the
// cell's honest anomaly), and its writes run as a saga — one idempotent
// step per key, compensated in reverse on failure. Atomic eventually, not
// isolated.
type microCell struct {
	app  *App
	dep  *micro.Deployment
	orch *saga.Orchestrator
	pool *submitPool
}

// kvGetReq/kvApplyReq are the shard services' wire types. Apply either
// adds Delta to the EncodeInt value (commutative, safely retried under
// idempotency keys) or, with Set, replaces/deletes the value outright; it
// returns the previous value so sagas can compensate. Values are []byte
// (base64 in the JSON body) because they are arbitrary bytes: a JSON
// string would rewrite invalid UTF-8 to U+FFFD.
type kvGetReq struct {
	Key string `json:"key"`
}

type kvGetResp struct {
	Val   []byte `json:"val"`
	Found bool   `json:"found"`
}

type kvApplyReq struct {
	Key   string `json:"key"`
	Delta int64  `json:"delta,omitempty"`
	Set   bool   `json:"set,omitempty"`
	Del   bool   `json:"del,omitempty"`
	Val   []byte `json:"val,omitempty"`
	// Push merges ID into the bounded id list at Key, keeping the Cap
	// largest (Txn.PushCap). Compensation restores the captured previous
	// value through the Set path, like any replaced value.
	Push bool  `json:"push,omitempty"`
	ID   int64 `json:"id,omitempty"`
	Cap  int   `json:"cap,omitempty"`
}

type kvApplyResp struct {
	Prev      []byte `json:"prev"`
	PrevFound bool   `json:"prev_found"`
}

func newMicroCell(app *App, env *Env, opts Options) *microCell {
	dep := micro.NewDeployment(env.Cluster)
	for s := 0; s < microShards; s++ {
		// Idempotency middleware makes retries of the non-idempotent
		// "apply" safe on a lossy, duplicating network (§3.2).
		svc := dep.AddService(micro.ServiceConfig{
			Name:        shardService(app, s),
			Idempotency: dedup.New(0),
		})
		svc.DB().CreateTable("state")
		svc.Handle("get", micro.JSONHandler(func(c *micro.Ctx, r kvGetReq) (kvGetResp, error) {
			var resp kvGetResp
			err := c.DB().View(func(tx *store.Txn) error {
				row, ok, err := tx.Get("state", r.Key)
				if err != nil {
					return err
				}
				if ok {
					resp = kvGetResp{Val: []byte(row.Str("v")), Found: true}
				}
				return nil
			})
			return resp, err
		}))
		svc.Handle("apply", micro.JSONHandler(func(c *micro.Ctx, r kvApplyReq) (kvApplyResp, error) {
			var resp kvApplyResp
			err := c.DB().Update(func(tx *store.Txn) error {
				row, ok, err := tx.Get("state", r.Key)
				if err != nil {
					return err
				}
				if ok {
					resp = kvApplyResp{Prev: []byte(row.Str("v")), PrevFound: true}
				}
				switch {
				case r.Push:
					merged := mergeBounded(DecodeIntList(resp.Prev), r.ID, r.Cap)
					return tx.Put("state", r.Key, store.Row{"v": string(EncodeIntList(merged))})
				case r.Set && r.Del:
					return tx.Delete("state", r.Key)
				case r.Set:
					return tx.Put("state", r.Key, store.Row{"v": string(r.Val)})
				default:
					cur := DecodeInt(resp.Prev)
					return tx.Put("state", r.Key, store.Row{"v": string(EncodeInt(cur + r.Delta))})
				}
			})
			return resp, err
		}))
	}
	return &microCell{app: app, dep: dep, orch: saga.NewOrchestrator(nil), pool: newSubmitPool(Microservices, opts.Clients, opts.MaxPending)}
}

func shardService(app *App, shard int) string {
	return fmt.Sprintf("%s-shard-%d", app.Name(), shard)
}

func (c *microCell) shardOf(key string) string {
	return shardService(c.app, keyShard(key, microShards))
}

func (c *microCell) call(key, op, idemKey string, req, resp any, tr *fabric.Trace) error {
	var codec micro.Codec
	svcName := c.shardOf(key)
	s, err := c.dep.Service(svcName)
	if err != nil {
		return err
	}
	raw, err := c.dep.Transport().Call(s.Node(), "svc/"+svcName+"/"+op, codec.Marshal(req), tr, rpc.CallOptions{
		Retries:        3,
		RetryBackoff:   time.Millisecond,
		IdempotencyKey: idemKey,
	})
	if err != nil {
		return err
	}
	if resp != nil {
		return codec.Unmarshal(raw, resp)
	}
	return nil
}

// microWrite is one buffered write awaiting its saga step.
type microWrite struct {
	key   string
	delta int64 // Add write when !set && !push
	set   bool  // Put write: replace with val
	val   []byte
	push  bool // PushCap write: merge id into the bounded list
	id    int64
	cap   int
	// prev captures the apply response for compensation.
	prev kvApplyResp
}

// microTxn reads through uncoordinated RPC and buffers writes for the
// saga. Gets overlay the op's own buffered writes so bodies read their
// writes.
type microTxn struct {
	cell   *microCell
	tr     *fabric.Trace
	writes []microWrite
}

func (t *microTxn) Get(key string) ([]byte, bool, error) {
	var resp kvGetResp
	if err := t.cell.call(key, "get", "", kvGetReq{Key: key}, &resp, t.tr); err != nil {
		return nil, false, err
	}
	raw, found := resp.Val, resp.Found
	if !found {
		raw = nil
	}
	// Overlay buffered writes in order so bodies read their own writes.
	for _, w := range t.writes {
		if w.key != key {
			continue
		}
		switch {
		case w.set:
			raw, found = w.val, true
		case w.push:
			raw, found = EncodeIntList(mergeBounded(DecodeIntList(raw), w.id, w.cap)), true
		default:
			raw, found = EncodeInt(DecodeInt(raw)+w.delta), true
		}
	}
	return raw, found, nil
}

func (t *microTxn) Put(key string, value []byte) error {
	t.writes = append(t.writes, microWrite{key: key, set: true, val: value})
	return nil
}

func (t *microTxn) Add(key string, delta int64) error {
	t.writes = append(t.writes, microWrite{key: key, delta: delta})
	return nil
}

func (t *microTxn) PushCap(key string, id int64, cap int) error {
	t.writes = append(t.writes, microWrite{key: key, push: true, id: id, cap: cap})
	return nil
}

func (c *microCell) Model() ProgrammingModel { return Microservices }
func (c *microCell) App() *App               { return c.app }

func (c *microCell) Guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: false,
		Note: "saga over REST: compensations on failure, dirty reads mid-saga"}
}

// Submit runs the saga on the cell's bounded worker pool: the REST stack
// is synchronous per request, so pipelining is client-side concurrency —
// Options.Clients sagas in flight, each with its honest (un-isolated)
// interleavings. The handle resolves when the saga completes or
// compensates.
func (c *microCell) Submit(reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	return c.pool.submit(func() ([]byte, error) {
		return c.invoke(reqID, opName, args, tr)
	})
}

// Invoke is semantically Submit(...).Result() — TestInvokeIsSubmitResult
// pins the equivalence — taking the pool's inline fast path for blocking
// callers.
func (c *microCell) Invoke(reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return c.pool.invoke(func() ([]byte, error) {
		return c.invoke(reqID, opName, args, tr)
	})
}

func (c *microCell) invoke(reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	op, ok := c.app.Op(opName)
	if !ok {
		return nil, opError(c.app, opName)
	}
	tx := &microTxn{cell: c, tr: tr}
	result, err := op.Body(op.guard(tx), args)
	if err != nil {
		return nil, err // business failure before any write: clean abort
	}
	if op.ReadOnly || len(tx.writes) == 0 {
		// Queries pay only their uncoordinated RPC reads: no saga is
		// staged, no per-key apply steps, no compensations registered.
		return result, nil
	}
	steps := make([]saga.Step, len(tx.writes))
	for i := range tx.writes {
		i, w := i, &tx.writes[i]
		steps[i] = saga.Step{
			Name: w.key,
			Action: func(*saga.Ctx) error {
				req := kvApplyReq{Key: w.key, Delta: w.delta}
				switch {
				case w.set:
					req = kvApplyReq{Key: w.key, Set: true, Val: w.val}
				case w.push:
					req = kvApplyReq{Key: w.key, Push: true, ID: w.id, Cap: w.cap}
				}
				return c.call(w.key, "apply", fmt.Sprintf("%s/w%d", reqID, i), req, &w.prev, tr)
			},
			Compensate: func(*saga.Ctx) error {
				req := kvApplyReq{Key: w.key, Delta: -w.delta}
				if w.set || w.push {
					// Restore (or remove) the value the step replaced — for
					// a push that also brings back any id the bounded merge
					// evicted, which removing just w.id would lose.
					req = kvApplyReq{Key: w.key, Set: true, Val: w.prev.Prev, Del: !w.prev.PrevFound}
				}
				return c.call(w.key, "apply", fmt.Sprintf("%s/c%d", reqID, i), req, nil, tr)
			},
		}
	}
	if err := c.orch.Execute(&saga.Definition{Name: op.Name, Steps: steps}, reqID, nil); err != nil {
		return nil, err
	}
	return result, nil
}

func (c *microCell) Read(key string) ([]byte, bool, error) {
	s, err := c.dep.Service(c.shardOf(key))
	if err != nil {
		return nil, false, err
	}
	var raw []byte
	var found bool
	err = s.DB().View(func(tx *store.Txn) error {
		row, ok, err := tx.Get("state", key)
		if err != nil {
			return err
		}
		if ok {
			raw, found = []byte(row.Str("v")), true
		}
		return nil
	})
	return raw, found, err
}

func (c *microCell) Settle() error { return nil }
func (c *microCell) Close()        {}
