// Benchmarks regenerating every experiment in EXPERIMENTS.md. The paper
// (a tutorial) has no tables; Figure 1 and each comparative claim in the
// text define the experiments — see DESIGN.md §3 for the index.
//
// Custom metrics the E1–E14 bodies report alongside ns/op:
//
//	sim-us/op    simulated end-to-end latency (fabric hops, cold starts)
//	anomalies    consistency violations observed during the bench
//
// The registered experiments (F1, E6, E10, E16–E24; experiments.go)
// report their grid rows' summary keys instead: the throughput key
// (tx_s, ops_s, goodput_s), the p99 latency keys (accept_p99_us, ...)
// and each row's extra metrics (sim_us_op, anomalies, ...).
package tca

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tca/internal/actor"
	"tca/internal/dataflow"
	"tca/internal/dedup"
	"tca/internal/faas"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/mq"
	"tca/internal/outbox"
	"tca/internal/rpc"
	"tca/internal/saga"
	"tca/internal/store"
	"tca/internal/workflow"
	"tca/internal/workload"
	"tca/internal/xa"
)

// --- Registered experiments ----------------------------------------------------

// benchExperiment is the benchmark view of one registered experiment
// (experiments.go): one sub-benchmark per sweep row, named by the row,
// that runs the row once at b.N ops under the sweep's seed and reports
// every metric of its Sample under the summary's key.
func benchExperiment(b *testing.B, id string) {
	for _, e := range Experiments(0) {
		if e.ID != id {
			continue
		}
		for _, spec := range e.Sweep {
			for _, row := range spec.Rows() {
				b.Run(row.Name(), func(b *testing.B) {
					s, err := e.Run(row, spec.BaseSeed, b.N)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(s.Throughput, spec.ThroughputKey)
					for key, samples := range map[string][]time.Duration{spec.AcceptKey: s.Accept, spec.ApplyKey: s.Apply} {
						if key != "" && len(samples) > 0 {
							b.ReportMetric(float64(grid.PooledQuantile([][]time.Duration{samples}, 0.99))/1e3, key)
						}
					}
					for key, v := range s.Extra {
						b.ReportMetric(v, key)
					}
				})
			}
		}
		return
	}
	b.Fatalf("no registered experiment %q", id)
}

// --- F1: the taxonomy matrix ---------------------------------------------------

// BenchmarkF1_TaxonomyMatrix runs the same bank-transfer workload under
// every programming model of Figure 1 (runF1).
func BenchmarkF1_TaxonomyMatrix(b *testing.B) { benchExperiment(b, "f1") }

// --- E1: actor transactions vs plain actor calls --------------------------------

func BenchmarkE1_ActorTxnOverhead(b *testing.B) {
	for _, accounts := range []int{64, 4} { // low vs high contention
		env := NewEnv(1, 3)
		sys := actor.NewSystem(env.Cluster, actor.Config{})
		defer sys.Stop()
		sys.Register("plain", func(ref actor.Ref) actor.Behavior {
			bal := int64(0)
			return actor.BehaviorFunc(func(ctx *actor.Ctx, msg actor.Message) ([]byte, error) {
				bal++
				return nil, nil
			})
		})
		coord := actor.NewCoordinator(sys)
		for a := 0; a < accounts; a++ {
			coord.SeedState(actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", a)}, store.Row{"balance": int64(1 << 40)})
		}
		gen := workload.NewBank(3, accounts, 0)

		b.Run(fmt.Sprintf("plain-call/accounts=%d", accounts), func(b *testing.B) {
			var sim int64
			for i := 0; i < b.N; i++ {
				tr := fabric.NewTrace()
				sys.Ask(actor.Ref{Type: "plain", ID: fmt.Sprintf("%d", i%accounts)}, "inc", nil, tr)
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
		b.Run(fmt.Sprintf("transaction/accounts=%d", accounts), func(b *testing.B) {
			var sim int64
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				tr := fabric.NewTrace()
				coord.Run(tr, func(t *actor.ActorTxn) error {
					from := actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", op.From)}
					to := actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", op.To)}
					f, _, err := t.Read(from)
					if err != nil {
						return err
					}
					g, _, err := t.Read(to)
					if err != nil {
						return err
					}
					if err := t.Write(from, store.Row{"balance": f.Int("balance") - op.Amount}); err != nil {
						return err
					}
					return t.Write(to, store.Row{"balance": g.Int("balance") + op.Amount})
				})
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
	}
}

// --- E2: delivery guarantees ------------------------------------------------------

func BenchmarkE2_DeliveryGuarantees(b *testing.B) {
	type variant struct {
		name string
		mode mq.DeliveryMode
		dup  bool // inject duplicate batches
		ded  bool // consumer-side dedup
	}
	variants := []variant{
		{"at-most-once", mq.AtMostOnce, false, false},
		{"at-least-once-raw", mq.AtLeastOnce, true, false},
		{"at-least-once-dedup", mq.AtLeastOnce, true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			broker := mq.NewBroker()
			if v.dup {
				cfg := fabric.DefaultConfig()
				cfg.DupProb = 0.10
				broker.WithChaos(fabric.NewCluster(cfg, "n"))
			}
			broker.CreateTopic("in", 1)
			p := broker.NewProducer("")
			c, _ := broker.NewConsumer("g", v.mode, "in")
			seen := dedup.New(0)
			applied := map[string]int{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("m-%d", i)
				p.Send("in", key, []byte("x"))
				for {
					msgs, _ := c.Poll(64)
					if msgs == nil {
						break
					}
					if v.mode == mq.AtMostOnce && i%10 == 0 {
						// Simulated consumer crash after Poll: the offset is
						// already committed, so the batch is lost forever.
						continue
					}
					for _, m := range msgs {
						if v.ded {
							seen.Do(m.Key, func() ([]byte, error) {
								applied[m.Key]++
								return nil, nil
							})
						} else {
							applied[m.Key]++
						}
					}
					c.Ack()
				}
			}
			b.StopTimer()
			anomalies := 0
			for _, n := range applied {
				if n != 1 {
					anomalies++
				}
			}
			// at-most-once may also have lost messages entirely.
			if v.mode == mq.AtMostOnce {
				anomalies += b.N - len(applied)
			}
			b.ReportMetric(float64(anomalies), "anomalies")
		})
	}
}

// --- E3: saga vs 2PC ---------------------------------------------------------------

func BenchmarkE3_SagaVs2PC(b *testing.B) {
	for _, parts := range []int{2, 4, 8} {
		setup := func() (*fabric.Cluster, []*store.DB) {
			nodes := make([]fabric.NodeID, parts+1)
			nodes[0] = "coord"
			dbs := make([]*store.DB, parts)
			for i := 0; i < parts; i++ {
				nodes[i+1] = fabric.NodeID(fmt.Sprintf("p%d", i))
				dbs[i] = store.NewDB(store.Config{Name: fmt.Sprintf("p%d", i)})
				dbs[i].CreateTable("t")
			}
			cfg := fabric.DefaultConfig()
			return fabric.NewCluster(cfg, nodes...), dbs
		}
		b.Run(fmt.Sprintf("2pc/participants=%d", parts), func(b *testing.B) {
			cl, dbs := setup()
			coord := xa.NewCoordinator(cl, "coord")
			names := make([]string, parts)
			for i, db := range dbs {
				names[i] = db.Name()
				coord.Enlist(xa.NewResourceManager(db.Name(), fabric.NodeID(fmt.Sprintf("p%d", i)), db))
			}
			var sim int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := fabric.NewTrace()
				coord.Run(fmt.Sprintf("g%d", i), names, tr, func(br map[string]*store.Txn) error {
					for _, name := range names {
						if err := br[name].Put("t", fmt.Sprintf("k%d", i), store.Row{"v": int64(i)}); err != nil {
							return err
						}
					}
					return nil
				})
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
		b.Run(fmt.Sprintf("saga/participants=%d", parts), func(b *testing.B) {
			cl, dbs := setup()
			_ = cl
			orch := saga.NewOrchestrator(nil)
			var sim int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := fabric.NewTrace()
				steps := make([]saga.Step, parts)
				for pi := 0; pi < parts; pi++ {
					db := dbs[pi]
					node := fabric.NodeID(fmt.Sprintf("p%d", pi))
					steps[pi] = saga.Step{
						Name: fmt.Sprintf("s%d", pi),
						Action: func(c *saga.Ctx) error {
							cl.Send("coord", node, tr) // request hop
							err := db.Update(func(tx *store.Txn) error {
								return tx.Put("t", c.SagaID, store.Row{"v": int64(1)})
							})
							cl.Send(node, "coord", tr) // reply hop
							return err
						},
						Compensate: func(c *saga.Ctx) error {
							return db.Update(func(tx *store.Txn) error {
								return tx.Delete("t", c.SagaID)
							})
						},
					}
				}
				orch.Execute(&saga.Definition{Name: "bench", Steps: steps}, fmt.Sprintf("s%d", i), nil)
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
	}
}

// --- E4: shared vs per-service database ---------------------------------------------

func BenchmarkE4_SharedVsPerServiceDB(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		mk := func(name string) *store.DB {
			return store.NewDB(store.Config{Name: name, MaxConcurrent: 2, ServiceTime: 20 * time.Microsecond})
		}
		victimDB := mk("victim")
		hotDB := victimDB
		if !shared {
			hotDB = mk("hot")
		}
		victimDB.CreateTable("t")
		hotDB.CreateTable("t")
		stop := make(chan struct{})
		defer close(stop)
		// Noisy neighbor: eight hot workers hammering its database.
		for w := 0; w < 8; w++ {
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					hotDB.Update(func(tx *store.Txn) error {
						return tx.Put("t", "hot", store.Row{"v": int64(1)})
					})
				}
			}()
		}
		lat := int64(0)
		worst := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			victimDB.View(func(tx *store.Txn) error {
				tx.Get("t", "victim")
				return nil
			})
			d := int64(time.Since(t0))
			lat += d
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(float64(lat)/float64(b.N)/1e3, "victim-us/op")
		b.ReportMetric(float64(worst)/1e3, "victim-max-us")
	}
	b.Run("shared-db", func(b *testing.B) { run(b, true) })
	b.Run("db-per-service", func(b *testing.B) { run(b, false) })
}

// --- E5: embedded vs external state ---------------------------------------------------

// e5Sink keeps the embedded read from being optimized away.
var e5Sink []byte

func BenchmarkE5_EmbeddedVsExternal(b *testing.B) {
	b.Run("embedded-kv", func(b *testing.B) {
		state := map[string][]byte{"k": []byte("v")}
		for i := 0; i < b.N; i++ {
			e5Sink = state["k"]
		}
		// Embedded state is an in-process read with no network hop, so its
		// modeled cost is zero by construction, not a measurement.
		b.ReportMetric(0, "sim-us/op")
	})
	b.Run("external-db-rpc", func(b *testing.B) {
		cl := fabric.NewCluster(fabric.DefaultConfig(), "app", "db")
		tr := rpc.NewTransport(cl)
		db := store.NewDB(store.Config{})
		db.CreateTable("t")
		db.Update(func(tx *store.Txn) error { return tx.Put("t", "k", store.Row{"v": int64(1)}) })
		tr.Register("get", "db", func(c *rpc.Call, req []byte) ([]byte, error) {
			var out []byte
			db.View(func(tx *store.Txn) error {
				row, _, _ := tx.Get("t", "k")
				out = []byte(fmt.Sprint(row.Int("v")))
				return nil
			})
			return out, nil
		})
		var sim int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trace := fabric.NewTrace()
			tr.Call("app", "get", nil, trace, rpc.CallOptions{})
			sim += int64(trace.Total())
		}
		b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
	})
}

// --- E6: cold starts ---------------------------------------------------------------------

// BenchmarkE6_ColdStart prices FaaS cold starts under rising eviction
// pressure (runE6).
func BenchmarkE6_ColdStart(b *testing.B) { benchExperiment(b, "e6") }

// --- E7: exactly-once is not isolation ------------------------------------------------------

func BenchmarkE7_IsolationAnomalies(b *testing.B) {
	b.Run("statefun-no-isolation", func(b *testing.B) {
		env := NewEnv(1, 3)
		bank, err := NewBank(StatefulDataflow, env)
		if err != nil {
			b.Fatal(err)
		}
		defer bank.Close()
		bank.Deposit(0, 1_000_000)
		bank.Deposit(1, 1_000_000)
		var anomalies int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bank.Transfer(fmt.Sprintf("t%d", i), 0, 1, 10, nil)
			// Observer audits mid-flight: with no isolation, totals off.
			b0, _ := balanceNoSettle(bank, 0)
			b1, _ := balanceNoSettle(bank, 1)
			if b0+b1 != 2_000_000 {
				anomalies++
			}
			bank.Settle()
		}
		b.ReportMetric(float64(anomalies), "anomalies")
	})
	b.Run("core-serializable", func(b *testing.B) {
		env := NewEnv(1, 3)
		bank, err := NewBank(Deterministic, env)
		if err != nil {
			b.Fatal(err)
		}
		defer bank.Close()
		bank.Deposit(0, 1_000_000)
		bank.Deposit(1, 1_000_000)
		var anomalies int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bank.Transfer(fmt.Sprintf("t%d", i), 0, 1, 10, nil); err != nil {
				b.Fatal(err)
			}
			b0, _ := bank.Balance(0)
			b1, _ := bank.Balance(1)
			if b0+b1 != 2_000_000 {
				anomalies++
			}
		}
		b.ReportMetric(float64(anomalies), "anomalies")
	})
}

// balanceNoSettle peeks at a statefun balance without waiting for
// quiescence (the dirty-read an external observer performs).
func balanceNoSettle(bank Bank, account int) (int64, error) {
	type peeker interface{ PeekBalance(int) int64 }
	if p, ok := bank.(peeker); ok {
		return p.PeekBalance(account), nil
	}
	return bank.Balance(account)
}

// --- E8: checkpoint + recovery cost vs state size --------------------------------------------

func BenchmarkE8_CheckpointRecovery(b *testing.B) {
	for _, keys := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			broker := mq.NewBroker()
			broker.CreateTopic("in", 2)
			j := dataflow.NewJob(broker, dataflow.Config{Name: "ck"}).
				Source("in").
				Stage("acc", 2, func(ctx *dataflow.OpCtx, rec dataflow.Record) {
					ctx.State().Put(rec.Key, rec.Value)
				}).
				Sink(func(dataflow.Record) {})
			if err := j.Start(); err != nil {
				b.Fatal(err)
			}
			defer j.Stop()
			p := broker.NewProducer("")
			for i := 0; i < keys; i++ {
				p.Send("in", fmt.Sprintf("k%d", i), []byte("valuevaluevalue"))
			}
			if err := j.WaitIdle(30 * time.Second); err != nil {
				b.Fatal(err)
			}
			var ckNanos, recNanos int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := j.TriggerCheckpoint(); err != nil {
					b.Fatal(err)
				}
				ckNanos += int64(time.Since(t0))
				j.Crash()
				t1 := time.Now()
				if err := j.Recover(); err != nil {
					b.Fatal(err)
				}
				if err := j.WaitIdle(30 * time.Second); err != nil {
					b.Fatal(err)
				}
				recNanos += int64(time.Since(t1))
			}
			b.ReportMetric(float64(ckNanos)/float64(b.N)/1e6, "checkpoint-ms")
			b.ReportMetric(float64(recNanos)/float64(b.N)/1e6, "recovery-ms")
		})
	}
}

// --- E9: idempotency-key overhead --------------------------------------------------------------

func BenchmarkE9_IdempotencyOverhead(b *testing.B) {
	for _, dup := range []float64{0, 0.10, 0.20} {
		for _, useKeys := range []bool{false, true} {
			name := fmt.Sprintf("dup=%.0f%%/keys=%v", dup*100, useKeys)
			b.Run(name, func(b *testing.B) {
				cfg := fabric.DefaultConfig()
				cfg.DupProb = dup
				cl := fabric.NewCluster(cfg, "c", "s")
				tr := rpc.NewTransport(cl)
				var effects atomic.Int64
				h := func(c *rpc.Call, req []byte) ([]byte, error) {
					effects.Add(1)
					return nil, nil
				}
				if useKeys {
					tr.Register("op", "s", rpc.WithIdempotency(dedup.New(0), h))
				} else {
					tr.Register("op", "s", h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts := rpc.CallOptions{Retries: 2, RetryBackoff: time.Millisecond}
					if useKeys {
						opts.IdempotencyKey = fmt.Sprintf("k%d", i)
					}
					tr.Call("c", "op", nil, nil, opts)
				}
				b.StopTimer()
				over := effects.Load() - int64(b.N)
				if over < 0 {
					over = 0
				}
				b.ReportMetric(float64(over), "duplicate-effects")
			})
		}
	}
}

// --- E10: open vs closed loop -------------------------------------------------------------------

// BenchmarkE10_OpenVsClosedLoop contrasts closed-loop clients, which
// self-throttle, with open-loop arrivals at 0.5× and 2× the capacity of a
// 10k ops/s service (runE10).
func BenchmarkE10_OpenVsClosedLoop(b *testing.B) { benchExperiment(b, "e10") }

// --- E11: entity critical sections ----------------------------------------------------------------

func BenchmarkE11_EntityLocks(b *testing.B) {
	p := faas.NewPlatform(fabric.SingleNode(), faas.DefaultConfig())
	em := p.Entities()
	a1 := faas.EntityID{Type: "acc", ID: "1"}
	a2 := faas.EntityID{Type: "acc", ID: "2"}
	em.Signal(a1, func(store.Row) (store.Row, error) { return store.Row{"balance": int64(1 << 40)}, nil })
	em.Signal(a2, func(store.Row) (store.Row, error) { return store.Row{"balance": int64(1 << 40)}, nil })
	b.Run("single-entity-signal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			em.Signal(a1, func(s store.Row) (store.Row, error) {
				return store.Row{"balance": s.Int("balance") + 1}, nil
			})
		}
	})
	b.Run("two-entity-critical-section", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cs := em.Lock(a1, a2)
			cs.Update(a1, func(s store.Row) (store.Row, error) {
				return store.Row{"balance": s.Int("balance") - 1}, nil
			})
			cs.Update(a2, func(s store.Row) (store.Row, error) {
				return store.Row{"balance": s.Int("balance") + 1}, nil
			})
			cs.Unlock()
		}
	})
}

// --- E12: workflow replay cost ----------------------------------------------------------------------

func BenchmarkE12_WorkflowReplay(b *testing.B) {
	for _, steps := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("history=%d", steps), func(b *testing.B) {
			e := workflow.NewEngine(nil)
			e.Register("wf", func(ctx *workflow.Ctx) error {
				for i := 0; i < steps; i++ {
					if _, err := ctx.Activity(fmt.Sprintf("s%d", i), func() ([]byte, error) {
						return []byte("r"), nil
					}); err != nil {
						return err
					}
				}
				// A worker crash keeps the status "running", so every Run
				// replays the full history — exactly what we measure.
				return workflow.ErrCrashInjected
			})
			e.Run("wf", "warm") // builds the history once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Run("wf", "warm")
			}
		})
	}
}

// --- E13: outbox vs dual write -------------------------------------------------------------------------

func BenchmarkE13_OutboxVsDualWrite(b *testing.B) {
	b.Run("dual-write-crashes", func(b *testing.B) {
		db := store.NewDB(store.Config{})
		db.CreateTable("orders")
		broker := mq.NewBroker()
		broker.CreateTopic("events", 1)
		w := &outbox.DualWriter{DB: db, Broker: broker}
		lost, phantom := 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			crash := outbox.NoCrash
			switch i % 10 { // 20% crash rate, split between the two points
			case 0:
				crash = outbox.CrashAfterDB
				lost++
			case 1:
				crash = outbox.CrashAfterPublish
				phantom++
			}
			w.Write("orders", fmt.Sprintf("o%d", i), store.Row{"v": int64(i)},
				outbox.Event{ID: fmt.Sprintf("e%d", i), Topic: "events", Key: "k"}, crash)
		}
		b.ReportMetric(float64(lost+phantom), "anomalies")
	})
	b.Run("outbox", func(b *testing.B) {
		db := store.NewDB(store.Config{})
		db.CreateTable("orders")
		broker := mq.NewBroker()
		broker.CreateTopic("events", 1)
		relay := outbox.NewRelay(db, broker)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			outbox.TransactionalWrite(db, int64(i), "orders", fmt.Sprintf("o%d", i),
				store.Row{"v": int64(i)},
				outbox.Event{ID: fmt.Sprintf("e%d", i), Topic: "events", Key: "k"})
			if i%16 == 0 {
				relay.Drain()
			}
		}
		relay.Drain()
		b.StopTimer()
		hw, _ := broker.HighWater(mq.TopicPartition{Topic: "events", Partition: 0})
		anomalies := int64(b.N) - hw
		if anomalies < 0 {
			anomalies = 0 // redeliveries are dedupable, not anomalies
		}
		b.ReportMetric(float64(anomalies), "anomalies")
	})
}

// --- E14: TPC-C subset across coordination styles ----------------------------------------------------------

func BenchmarkE14_TPCC(b *testing.B) {
	// Throughput measurement: parallel clients pipeline their requests,
	// which is where the deterministic runtime's lack of coordination pays
	// off and where 2PC's lock windows bite. All three styles now run the
	// real TPCCApp bodies through the application layer.
	styles := []struct {
		name  string
		model ProgrammingModel
	}{
		{"core", Deterministic},
		{"actor-2pc", Actors},
		{"saga", Microservices},
	}
	for _, warehouses := range []int{1, 4} {
		cfg := workload.DefaultTPCCConfig(warehouses)
		for _, style := range styles {
			b.Run(fmt.Sprintf("%s/wh=%d", style.name, warehouses), func(b *testing.B) {
				env := NewEnv(1, 3)
				// Workers widens the core cell for the parallel clients;
				// Clients keeps the sync cells' worker pool above
				// RunParallel's goroutine count so the pool never caps
				// this benchmark's concurrency.
				cell, err := DeployWith(style.model, TPCCApp(), env, Options{Workers: 16, Clients: 64})
				if err != nil {
					b.Fatal(err)
				}
				defer cell.Close()
				var seq, sim atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					gen := workload.NewTPCC(seq.Add(1), cfg)
					for pb.Next() {
						op := gen.Next()
						args, _ := json.Marshal(op)
						tr := fabric.NewTrace()
						cell.Invoke(fmt.Sprintf("t%d", seq.Add(1)), tpccOpName(op), args, tr)
						sim.Add(int64(tr.Total()))
					}
				})
				b.ReportMetric(float64(sim.Load())/float64(b.N)/1e3, "sim-us/op")
			})
		}
	}
}

// --- E16–E24: the matrices and frontiers --------------------------------------------------------

// BenchmarkE16_CorePartitionScaling sweeps the deterministic core's
// partition count against the cross-partition share on the real durable
// log (runE16).
func BenchmarkE16_CorePartitionScaling(b *testing.B) { benchExperiment(b, "e16") }

// BenchmarkE17_TPCCMatrix runs the identical seeded TPC-C stream under
// every programming model, swept over warehouses, the cross-warehouse
// rate and the query rate, audited against the serial reference
// (runE17).
func BenchmarkE17_TPCCMatrix(b *testing.B) { benchExperiment(b, "e17") }

// BenchmarkE18_MarketplaceMatrix runs the marketplace mix under every
// programming model at two popularity skews, audited for the
// checkout/price write skew, plus the read-only path A/B (runE18).
func BenchmarkE18_MarketplaceMatrix(b *testing.B) { benchExperiment(b, "e18") }

// BenchmarkE19_SocialMatrix runs the compose-post fan-out under every
// programming model across the statefun 32-send budget (runE19).
func BenchmarkE19_SocialMatrix(b *testing.B) { benchExperiment(b, "e19") }

// BenchmarkE20_ConcurrencyMatrix drives every cell through pipelined
// Sessions at rising client counts on the TPC-C and social mixes,
// audited live (concurrencyRun).
func BenchmarkE20_ConcurrencyMatrix(b *testing.B) { benchExperiment(b, "e20") }

// BenchmarkE21_LiveAuditOverhead runs every audited mix on the two
// log-based cells with the live auditor on and off (concurrencyRun).
func BenchmarkE21_LiveAuditOverhead(b *testing.B) { benchExperiment(b, "e21") }

// BenchmarkE22_DurabilityFrontier maps the real durable log's group-append
// cap against the fsync policy (runE22).
func BenchmarkE22_DurabilityFrontier(b *testing.B) { benchExperiment(b, "e22") }

// BenchmarkE23_OverloadFrontier offers every cell open-loop arrivals at
// 0.5×–4× its measured capacity with admission control on and off
// (overloadRun).
func BenchmarkE23_OverloadFrontier(b *testing.B) { benchExperiment(b, "e23") }

// BenchmarkE24_GeoFrontier maps local-read staleness against
// cross-region commit cost for async and sequenced replica groups
// (runE24).
func BenchmarkE24_GeoFrontier(b *testing.B) { benchExperiment(b, "e24") }
