package tca

import (
	"encoding/json"
	"fmt"

	"tca/internal/workload"
)

// ConcurrencyMixes are the workloads the E20 matrix sweeps: the TPC-C
// NewOrder/Payment mix (non-commutative stock writes — the order verdict
// separates real anomalies from reorder noise) and the social
// compose-post mix (fully commutative — any divergence is a delivery
// failure).
var ConcurrencyMixes = []string{"tpcc", "social"}

// AuditedMixes are the workloads the E21 live-audit-overhead sweep
// drives: every first-class App, each under its incremental Auditor.
// "market-res" is the reservation-style marketplace (ROADMAP 4b) —
// identical op mix to "market", restructured so commutativity and
// unique key ownership replace isolation; "booking" and "ledger" are
// the example programs promoted to first-class audited mixes.
var AuditedMixes = []string{"bank", "tpcc", "market", "market-res", "booking", "ledger", "social"}

// geoMix is the mix E24 drives on its replica groups.
const geoMix = "market-geo"

// mix is one workload the driver runs: its App, its incremental Auditor,
// one client's seeded op stream, and the state it starts from.
type mix struct {
	app     func() *App
	auditor func() Auditor
	stream  func(seed int64) func() (name string, args []byte)
	// init seeds the cell's starting state and, when auditing, folds the
	// same seeding into the auditor's reference; nil starts empty.
	init func(c Cell, aud Auditor) error
	// keys is every key the mix can touch — the finite universe a replica
	// group's convergence check walks; nil where it is not enumerated.
	keys []string
}

// bankMixAccounts and bankMixBalance size the bank mix: enough seeded
// balance that the uniform transfer stream never legitimately overdrafts,
// so any overdraft or conservation hit is the cell's doing.
const (
	bankMixAccounts = 64
	bankMixBalance  = 1_000_000
)

// concurrencyMarket is the E20/E21 marketplace shape, shared by "market"
// and "market-res" so the reserved row is comparable to the
// tolerate-the-drift row next to it — only the reservation bookkeeping
// (ids, quotes, claims) differs.
var concurrencyMarket = func() workload.MarketConfig {
	cfg := workload.DefaultMarketConfig()
	cfg.Users, cfg.Products = 256, 64
	cfg.ZipfS = 1.3
	return cfg
}()

// geoMarket is E24's marketplace: 30% read-only product queries, and few
// enough users and products that the regions' streams collide on hot keys.
var geoMarket = workload.MarketConfig{
	Users: 64, Products: 16,
	CartFrac: 0.40, CheckoutFrac: 0.20, PriceFrac: 0.10,
	ZipfS: 1.3,
}

// mixTable is every mix the driver can run, by name.
var mixTable = map[string]mix{
	"bank": {
		app:     BankApp,
		auditor: func() Auditor { return NewBankAuditor() },
		init:    seedBank,
		stream: func(seed int64) func() (string, []byte) {
			gen := workload.NewBank(seed, bankMixAccounts, 0.1)
			return jsonStream(func() bankTransferArgs {
				op := gen.Next()
				return bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount}
			}, func(bankTransferArgs) string { return "transfer" })
		},
	},
	"tpcc": {
		app:     TPCCApp,
		auditor: func() Auditor { return NewTPCCAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewTPCC(seed, workload.DefaultTPCCConfig(4)).Next, tpccOpName)
		},
	},
	"market": marketMix(concurrencyMarket),
	"market-res": {
		app:     MarketAppReserved,
		auditor: func() Auditor { return NewMarketReservedAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewReservedMarket(seed, concurrencyMarket).Next, marketOpName)
		},
	},
	"booking": {
		app:     BookingApp,
		auditor: func() Auditor { return NewBookingAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewBooking(seed, 64, 8, 8, 0.1, 0.2).Next, bookingOpName)
		},
	},
	"ledger": {
		app:     LedgerApp,
		auditor: func() Auditor { return NewLedgerAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewLedger(seed, 32, 0.15).Next, ledgerOpName)
		},
	},
	"social": {
		app:     SocialApp,
		auditor: func() Auditor { return NewSocialAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewSocial(seed, 128, 16).Next, SocialOpName)
		},
	},
	geoMix: marketMix(geoMarket),
}

// lookupMix returns the named mix; an unknown name is an error.
func lookupMix(name string) (mix, error) {
	m, ok := mixTable[name]
	if !ok {
		return mix{}, fmt.Errorf("tca: unknown mix %q", name)
	}
	return m, nil
}

// marketMix is the plain marketplace of one shape, with its key universe
// so a replica group running it can check convergence.
func marketMix(cfg workload.MarketConfig) mix {
	return mix{
		app:     MarketApp,
		auditor: func() Auditor { return NewMarketAuditor() },
		stream: func(seed int64) func() (string, []byte) {
			return jsonStream(workload.NewMarket(seed, cfg).Next, marketOpName)
		},
		keys: marketKeyUniverse(cfg),
	}
}

// jsonStream turns a generator into an op stream: each op's name and its
// JSON arguments.
func jsonStream[T any](next func() T, name func(T) string) func() (string, []byte) {
	return func() (string, []byte) {
		op := next()
		args, _ := json.Marshal(op)
		return name(op), args
	}
}

// seedBank funds every account of the bank mix so transfers never
// legitimately abort.
func seedBank(cell Cell, aud Auditor) error {
	for acct := 0; acct < bankMixAccounts; acct++ {
		args, _ := json.Marshal(bankDepositArgs{Account: acct, Amount: bankMixBalance})
		reqID := fmt.Sprintf("seed/%d", acct)
		if _, err := cell.Invoke(reqID, "deposit", args, nil); err != nil {
			return err
		}
		if aud != nil {
			aud.Record(reqID, "deposit", args)
			aud.Observe(Commit{ReqID: reqID})
		}
	}
	return cell.Settle()
}

// marketKeyUniverse enumerates every key a marketplace of this size can
// touch.
func marketKeyUniverse(cfg workload.MarketConfig) []string {
	keys := make([]string, 0, 2*cfg.Users+2*cfg.Products)
	for u := 0; u < cfg.Users; u++ {
		keys = append(keys, workload.CartKey(u), workload.OrderKey(u))
	}
	for p := 0; p < cfg.Products; p++ {
		keys = append(keys, workload.PriceKey(p), workload.MarketStockKey(p))
	}
	return keys
}
