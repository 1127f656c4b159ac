package tca

import (
	"encoding/json"
	"fmt"

	"tca/internal/workload"
)

// The streaming double-entry ledger from examples/streamledger promoted
// to a first-class App (ISSUE 10 satellite): a posting moves an amount
// between two accounts and journals the entry id on both sides, so
// every unit of value is accounted twice — the invariant the example's
// dataflow job checkpointed and recovered. Balance moves are commutative
// Adds and journals are bounded commutative PushCap merges, so every
// cell must audit clean; the audited invariant is conservation
// (Σ balances constant — double-entry by construction) plus per-account
// equality with the serial reference. query-balance is the ReadOnly
// path.
//
// State encoding:
//
//	acct/A     account A's balance (EncodeInt, a binary varint)
//	journal/A  account A's recent entry ids (EncodeIntList, bounded: a
//	           count followed by binary varints)

// ledgerJournalCap bounds each account's journal to its most recent
// entries — the same capped-merge shape as social timelines.
const ledgerJournalCap = 16

// ledgerQueryResult is query-balance's wire result.
type ledgerQueryResult struct {
	Balance int64 `json:"balance"`
}

// LedgerApp builds the ledger App. Op arguments are JSON-encoded
// workload.LedgerOp descriptors.
func LedgerApp() *App {
	app := NewApp("ledger")
	keys := func(args []byte) []string {
		var op workload.LedgerOp
		json.Unmarshal(args, &op)
		return op.Keys()
	}
	app.Register(Op{Name: workload.LedgerPost.String(), Keys: keys, Body: ledgerPost})
	app.Register(Op{Name: workload.LedgerQuery.String(), Keys: keys, ReadOnly: true, Body: ledgerQueryBalance})
	return app
}

// ledgerOpName maps a generated op to its registered op name.
func ledgerOpName(op workload.LedgerOp) string { return op.Kind.String() }

// ledgerPost applies one double-entry posting: debit, credit, and the
// journal entry on both sides.
func ledgerPost(tx Txn, args []byte) ([]byte, error) {
	var op workload.LedgerOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.AcctKey(op.From), -op.Amount); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.AcctKey(op.To), op.Amount); err != nil {
		return nil, err
	}
	if err := tx.PushCap(workload.JournalKey(op.From), op.Entry, ledgerJournalCap); err != nil {
		return nil, err
	}
	return nil, tx.PushCap(workload.JournalKey(op.To), op.Entry, ledgerJournalCap)
}

// ledgerQueryBalance reads one account's balance.
func ledgerQueryBalance(tx Txn, args []byte) ([]byte, error) {
	var op workload.LedgerOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	raw, _, err := tx.Get(workload.AcctKey(op.From))
	if err != nil {
		return nil, err
	}
	out, _ := json.Marshal(ledgerQueryResult{Balance: DecodeInt(raw)})
	return out, nil
}

// LedgerAuditor audits the ledger on the shared engine: conservation
// (every posting's debit equals its credit, so Σ balances never moves),
// per-account equality with the delta-maintained expectation, and the
// settled-state comparison against the serial reference (which also
// covers the journals' capped merges).
type LedgerAuditor struct {
	*refAuditor
}

// NewLedgerAuditor creates an empty auditor.
func NewLedgerAuditor() *LedgerAuditor {
	cons := NewConstraints().
		SumTotal(SumTotal{
			Name:   "conservation",
			Prefix: "acct/",
			Delta:  func(op string, args []byte) int64 { return 0 },
		}).
		KeyTotal(KeyTotal{
			Name: "account balances",
			Delta: func(op string, args []byte) map[string]int64 {
				if op != workload.LedgerPost.String() {
					return nil
				}
				var l workload.LedgerOp
				if json.Unmarshal(args, &l) != nil {
					return nil
				}
				return map[string]int64{
					workload.AcctKey(l.From): -l.Amount,
					workload.AcctKey(l.To):   l.Amount,
				}
			},
			Describe: func(key string, got, want int64) string {
				return fmt.Sprintf("%s: balance %d, expected %d (lost or doubled posting)", key, got, want)
			},
		})
	return &LedgerAuditor{newRefAuditor(auditorConfig{
		app:  LedgerApp(),
		cons: cons,
	})}
}

// RecordOp folds one accepted op into the reference in serial order.
// Queries are no-ops by construction and skipped.
func (a *LedgerAuditor) RecordOp(op workload.LedgerOp) {
	if op.Kind == workload.LedgerQuery {
		return
	}
	args, _ := json.Marshal(op)
	a.ObserveSerial(ledgerOpName(op), args)
}
