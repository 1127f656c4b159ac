package main

import (
	"encoding/json"
	"fmt"

	"tca"
	"tca/internal/workload"
)

// spec is one benchmark workload: an App deployed on one cell, the seeded
// op stream that drives it, its fixed open-loop rate, and its auditor.
// README.md says why each workload exists and which layers it loads.
type spec struct {
	name  string
	model tca.ProgrammingModel
	// rate is the open-loop Poisson arrival rate in requests per second,
	// about half of the workload's closed-loop peak on a 2-CPU host.
	rate float64
	// durable puts the Deterministic cell on a real write-ahead log.
	durable bool
	app     func() *tca.App
	auditor func() tca.Auditor
	// initial returns the ops that build the initial state, run serially
	// before the warm-up.
	initial func() []genOp
	// stream returns the seeded op generator.
	stream func(seed int64) func() genOp
}

// genOp is one generated request: an op name and its JSON arguments.
type genOp struct {
	name string
	args []byte
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generators' op types always marshal
	}
	return raw
}

// Bank sizing for actors-bank-hot: every account starts with enough money
// that no transfer legitimately overdraws, and a fifth of the transfers
// draw from account 0, the hot lock.
const (
	bankAccounts = 64
	bankBalance  = 1_000_000
	bankHotFrac  = 0.2
)

var specs = []spec{
	{
		name:    "core-tpcc",
		model:   tca.Deterministic,
		rate:    2500,
		durable: true,
		app:     tca.TPCCApp,
		auditor: func() tca.Auditor { return tca.NewTPCCAuditor() },
		stream: func(seed int64) func() genOp {
			gen := workload.NewTPCC(seed, workload.DefaultTPCCConfig(4))
			return func() genOp {
				op := gen.Next()
				return genOp{op.Kind.String(), mustJSON(op)}
			}
		},
	},
	{
		name:    "core-market-reads",
		model:   tca.Deterministic,
		rate:    5000,
		durable: true,
		app:     tca.MarketApp,
		auditor: func() tca.Auditor { return tca.NewMarketAuditor() },
		stream: func(seed int64) func() genOp {
			cfg := workload.DefaultMarketConfig()
			cfg.Users, cfg.Products, cfg.ZipfS = 256, 64, 1.3
			// The remaining 80% are read-only query-product requests.
			cfg.CartFrac, cfg.CheckoutFrac, cfg.PriceFrac = 0.15, 0.03, 0.02
			gen := workload.NewMarket(seed, cfg)
			return func() genOp {
				op := gen.Next()
				return genOp{op.Kind.String(), mustJSON(op)}
			}
		},
	},
	{
		name:    "statefun-social",
		model:   tca.StatefulDataflow,
		rate:    1500,
		app:     tca.SocialApp,
		auditor: func() tca.Auditor { return tca.NewSocialAuditor() },
		stream: func(seed int64) func() genOp {
			gen := workload.NewSocialChurn(seed, 128, 32, 0.1)
			return func() genOp {
				op := gen.Next()
				return genOp{tca.SocialOpName(op), mustJSON(op)}
			}
		},
	},
	{
		name:    "actors-bank-hot",
		model:   tca.Actors,
		rate:    1500,
		app:     tca.BankApp,
		auditor: func() tca.Auditor { return tca.NewBankAuditor() },
		initial: func() []genOp {
			ops := make([]genOp, bankAccounts)
			for a := range ops {
				ops[a] = genOp{"deposit", []byte(fmt.Sprintf(`{"account":%d,"amount":%d}`, a, bankBalance))}
			}
			return ops
		},
		stream: func(seed int64) func() genOp {
			gen := workload.NewBank(seed, bankAccounts, bankHotFrac)
			return func() genOp {
				op := gen.Next()
				return genOp{"transfer", []byte(fmt.Sprintf(`{"from":%d,"to":%d,"amount":%d}`, op.From, op.To, op.Amount))}
			}
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
