package tca

import (
	"encoding/json"
	"fmt"

	"tca/internal/workload"
)

// TPC-C (the NewOrder/Payment subset of internal/workload) as a
// first-class App: the same seeded op stream runs under all five
// programming models, and TPCCAuditor checks the classic
// integrity-constraint story across them — stock never negative,
// warehouse YTD equal to the sum of payments, district order counters
// equal to the number of NewOrders.
//
// State encoding (all values EncodeInt: an int64 as a binary zig-zag varint):
//
//	wh/W        warehouse year-to-date payment total (starts 0)
//	dist/W/D    orders issued in the district (starts 0; next_o_id - 1)
//	cust/W/D/C  customer balance (starts 0, payments subtract)
//	stock/W/I   stock level (starts at tpccInitialStock on first touch)
//
// Counters are written with commutative Adds, so they stay exact even on
// the eventual cells; stock is an honest read-modify-write (the restock
// decision depends on the read), which is exactly where cells without
// isolation drift — the anomaly E17 reports.

// tpccInitialStock is the stock level of an untouched item, and
// tpccRestock the replenishment the standard prescribes when a NewOrder
// would leave fewer than tpccRestockFloor units. tpccStockLevelThreshold
// is StockLevel's default low-stock cutoff (the standard draws 10..20
// uniformly; descriptors may pin their own via TPCCOp.Threshold).
const (
	tpccInitialStock        = 100
	tpccRestock             = 91
	tpccRestockFloor        = 10
	tpccStockLevelThreshold = 15
)

// TPCCApp builds the TPC-C subset as a model-agnostic App. Op arguments
// are JSON-encoded workload.TPCCOp descriptors, so any workload.TPCCGen
// stream drives any cell.
func TPCCApp() *App {
	app := NewApp("tpcc")
	keys := func(args []byte) []string {
		var op workload.TPCCOp
		json.Unmarshal(args, &op)
		return op.Keys()
	}
	app.Register(Op{Name: workload.TPCCNewOrder.String(), Keys: keys, Body: tpccNewOrder})
	app.Register(Op{Name: workload.TPCCPayment.String(), Keys: keys, Body: tpccPayment})
	app.Register(Op{Name: workload.TPCCOrderStatus.String(), Keys: keys, ReadOnly: true, Body: tpccOrderStatus})
	app.Register(Op{Name: workload.TPCCStockLevel.String(), Keys: keys, ReadOnly: true, Body: tpccStockLevel})
	return app
}

// tpccOrderStatusResult is order-status's wire result.
type tpccOrderStatusResult struct {
	Balance int64 `json:"balance"`
	Orders  int64 `json:"orders"`
}

// tpccStockLevelResult is stock-level's wire result.
type tpccStockLevelResult struct {
	Low     int64 `json:"low"`
	Scanned int64 `json:"scanned"`
}

// tpccOpName maps a generated op to its registered op name.
func tpccOpName(op workload.TPCCOp) string { return op.Kind.String() }

// tpccNewOrder issues one order: bump the district's order counter and
// draw down stock for every line, restocking when a line would leave the
// shelf below the floor.
func tpccNewOrder(tx Txn, args []byte) ([]byte, error) {
	var op workload.TPCCOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.DistrictKey(op.Warehouse, op.District), 1); err != nil {
		return nil, err
	}
	sw := op.Warehouse
	if op.Remote {
		sw = op.RemoteWarehouse
	}
	// Aggregate duplicate items so each stock key gets one read and one
	// write (the declared key set is deduplicated the same way).
	qty := make(map[string]int64)
	var order []string
	for _, it := range op.Items {
		k := workload.StockKey(sw, it.ItemID)
		if _, seen := qty[k]; !seen {
			order = append(order, k)
		}
		qty[k] += int64(it.Qty)
	}
	for _, k := range order {
		raw, found, err := tx.Get(k)
		if err != nil {
			return nil, err
		}
		s := int64(tpccInitialStock)
		if found {
			s = DecodeInt(raw)
		}
		for s-qty[k] < tpccRestockFloor {
			s += tpccRestock
		}
		s -= qty[k]
		if err := tx.Put(k, EncodeInt(s)); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// tpccPayment applies one payment: warehouse YTD up, customer balance
// down — pure commutative deltas, so every cell keeps them exact.
func tpccPayment(tx Txn, args []byte) ([]byte, error) {
	var op workload.TPCCOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.WarehouseKey(op.Warehouse), op.Amount); err != nil {
		return nil, err
	}
	cw := op.Warehouse
	if op.Remote {
		cw = op.RemoteWarehouse
	}
	return nil, tx.Add(workload.CustomerKey(cw, op.District, op.Customer), -op.Amount)
}

// tpccOrderStatus answers the standard's OrderStatus query from the
// customer's balance and the district's order counter — a pure read over
// its two declared keys, which every cell serves on its query fast path.
func tpccOrderStatus(tx Txn, args []byte) ([]byte, error) {
	var op workload.TPCCOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	balRaw, _, err := tx.Get(workload.CustomerKey(op.Warehouse, op.District, op.Customer))
	if err != nil {
		return nil, err
	}
	ordRaw, _, err := tx.Get(workload.DistrictKey(op.Warehouse, op.District))
	if err != nil {
		return nil, err
	}
	return json.Marshal(tpccOrderStatusResult{Balance: DecodeInt(balRaw), Orders: DecodeInt(ordRaw)})
}

// tpccStockLevel answers the standard's StockLevel query: how many of the
// inspected items sit below the threshold. Untouched stock keys read as
// tpccInitialStock, mirroring tpccNewOrder's implicit initialization.
func tpccStockLevel(tx Txn, args []byte) ([]byte, error) {
	var op workload.TPCCOp
	if err := json.Unmarshal(args, &op); err != nil {
		return nil, err
	}
	threshold := op.Threshold
	if threshold == 0 {
		threshold = tpccStockLevelThreshold
	}
	var res tpccStockLevelResult
	seen := map[string]struct{}{}
	for _, it := range op.Items {
		k := workload.StockKey(op.Warehouse, it.ItemID)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		raw, found, err := tx.Get(k)
		if err != nil {
			return nil, err
		}
		s := int64(tpccInitialStock)
		if found {
			s = DecodeInt(raw)
		}
		res.Scanned++
		if s < threshold {
			res.Low++
		}
	}
	return json.Marshal(res)
}

// TPCCAuditor audits a TPC-C op stream incrementally on the shared
// engine (audit.go): per-key equality with the serial reference under the
// precedence-graph order verdict, plus the classic integrity constraints
// as a delta-maintained ConstraintSet — stock never negative (checked
// live against sampled cell values), warehouse YTD equal to the sum of
// payments, district order counters equal to the NewOrders issued.
type TPCCAuditor struct {
	*refAuditor
}

// NewTPCCAuditor creates an empty auditor.
func NewTPCCAuditor() *TPCCAuditor {
	cons := NewConstraints().
		Check(NonNegative("negative stock", "stock/", true)).
		KeyTotal(KeyTotal{
			Name: "warehouse YTD",
			Delta: func(opName string, args []byte) map[string]int64 {
				if opName != workload.TPCCPayment.String() {
					return nil
				}
				var op workload.TPCCOp
				json.Unmarshal(args, &op)
				return map[string]int64{workload.WarehouseKey(op.Warehouse): op.Amount}
			},
			Describe: func(key string, got, want int64) string {
				return fmt.Sprintf("%s: YTD %d != sum of payments %d", key, got, want)
			},
		}).
		KeyTotal(KeyTotal{
			Name: "district orders",
			Delta: func(opName string, args []byte) map[string]int64 {
				if opName != workload.TPCCNewOrder.String() {
					return nil
				}
				var op workload.TPCCOp
				json.Unmarshal(args, &op)
				return map[string]int64{workload.DistrictKey(op.Warehouse, op.District): 1}
			},
			Describe: func(key string, got, want int64) string {
				return fmt.Sprintf("%s: %d orders counted, %d issued", key, got, want)
			},
		})
	return &TPCCAuditor{newRefAuditor(auditorConfig{app: TPCCApp(), cons: cons})}
}

// RecordOp folds one applied op into the reference in serial order — the
// typed convenience the serial drivers and benchmarks use.
func (a *TPCCAuditor) RecordOp(op workload.TPCCOp) {
	args, _ := json.Marshal(op)
	a.ObserveSerial(tpccOpName(op), args)
}
