package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"tca/internal/workload"
)

// The Online Marketplace benchmark (§5.3, ref [38]) as a first-class App:
// carts, checkouts, product queries, and price updates from one seeded
// workload.MarketGen stream, deployable under all five programming models.
// This retires the hand-rolled per-model marketplace adapters the old E15
// carried — the workload is now ~100 lines of App, like TPC-C.
//
// State encoding (all values EncodeInt: an int64 as a binary zig-zag varint):
//
//	cart/U     items in user U's cart (adds accumulate, checkout removes)
//	price/P    product P's current price (starts at marketInitialPrice)
//	mstock/P   product P's stock (starts at marketInitialStock on first touch)
//	order/U    user U's lifetime spend ledger (checkout adds items × price)
//
// Cart and order mutations are commutative Adds, so they stay exact even
// on the eventual cells. The checkout is the anomaly surface: it reads the
// cart, the price, and the stock, then writes stock and the order ledger.
// Under a concurrent price update, a cell without isolation can charge a
// price that was never current at any serialization point of the checkout
// — the write-skew between checkouts and price updates that MarketAuditor
// detects as order-ledger drift from the serial reference. query-product
// is declared ReadOnly: every cell answers it without write machinery.
// checkout (and MarketAppReserved's reserve and claim bodies) returns the
// amount charged as an EncodeInt value, in that binary form, not as text.

// marketInitialPrice and marketInitialStock are the implicit state of an
// untouched product; marketRestock/marketRestockFloor mirror the TPC-C
// replenishment rule so stock stays non-negative in the serial order.
const (
	marketInitialPrice = 100
	marketInitialStock = 1000
	marketRestock      = 900
	marketRestockFloor = 10
)

// ErrEmptyCart rejects a checkout with nothing in the cart — a business
// failure, aborted before any write on every cell.
var ErrEmptyCart = errors.New("tca: checkout with empty cart")

// marketQueryResult is query-product's wire result.
type marketQueryResult struct {
	Price int64 `json:"price"`
	Stock int64 `json:"stock"`
}

// MarketApp builds the marketplace as a model-agnostic App. Op arguments
// are JSON-encoded workload.MarketOp descriptors, so any seeded
// workload.MarketGen stream drives any cell; workload.ParseMarketOp
// decodes them for every op.
func MarketApp() *App {
	parse, keys := workload.ParseMarketOp, workload.MarketOp.Keys
	return NewApp("market").
		Register(opFor(workload.MarketAddToCart.String(), parse, keys, marketAddToCart)).
		Register(opFor(workload.MarketCheckout.String(), parse, keys, marketCheckout)).
		Register(queryFor(workload.MarketQueryProduct.String(), parse, keys, marketQueryProduct)).
		Register(opFor(workload.MarketUpdatePrice.String(), parse, keys, marketUpdatePrice))
}

// marketOpName maps a generated op to its registered op name.
func marketOpName(op workload.MarketOp) string { return op.Kind.String() }

// marketAddToCart drops qty items into the user's cart — a pure
// commutative delta, exact on every cell.
func marketAddToCart(tx Txn, op workload.MarketOp) ([]byte, error) {
	return nil, tx.Add(workload.CartKey(op.User), int64(op.Qty))
}

// marketPrice reads a product's current price, defaulting untouched
// products to the initial price.
func marketPrice(tx Txn, product int) (int64, error) {
	raw, found, err := tx.Get(workload.PriceKey(product))
	if err != nil {
		return 0, err
	}
	if !found {
		return marketInitialPrice, nil
	}
	return DecodeInt(raw), nil
}

// marketCheckout purchases the cart's items at the product's current
// price: an honest read-modify-write across four keys. The price and cart
// reads are exactly as fresh as the cell's isolation — which is the point.
func marketCheckout(tx Txn, op workload.MarketOp) ([]byte, error) {
	raw, _, err := tx.Get(workload.CartKey(op.User))
	if err != nil {
		return nil, err
	}
	items := DecodeInt(raw)
	if items <= 0 {
		return nil, ErrEmptyCart
	}
	price, err := marketPrice(tx, op.Product)
	if err != nil {
		return nil, err
	}
	stockKey := workload.MarketStockKey(op.Product)
	raw, found, err := tx.Get(stockKey)
	if err != nil {
		return nil, err
	}
	stock := int64(marketInitialStock)
	if found {
		stock = DecodeInt(raw)
	}
	for stock-items < marketRestockFloor {
		stock += marketRestock
	}
	stock -= items
	if err := tx.Put(stockKey, EncodeInt(stock)); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.OrderKey(op.User), items*price); err != nil {
		return nil, err
	}
	// Remove exactly what was bought (commutative): a concurrent
	// add-to-cart is preserved rather than clobbered.
	return EncodeInt(items * price), tx.Add(workload.CartKey(op.User), -items)
}

// marketQueryProduct is the read-only op: price and stock from one
// consistent view, no writes — the path every cell answers without its
// write machinery.
func marketQueryProduct(tx Txn, op workload.MarketOp) ([]byte, error) {
	price, err := marketPrice(tx, op.Product)
	if err != nil {
		return nil, err
	}
	raw, found, err := tx.Get(workload.MarketStockKey(op.Product))
	if err != nil {
		return nil, err
	}
	stock := int64(marketInitialStock)
	if found {
		stock = DecodeInt(raw)
	}
	out, _ := json.Marshal(marketQueryResult{Price: price, Stock: stock})
	return out, nil
}

// marketUpdatePrice repositions a product — the blind write that, raced
// against a checkout's price read, produces the write-skew E18 measures.
func marketUpdatePrice(tx Txn, op workload.MarketOp) ([]byte, error) {
	return nil, tx.Put(workload.PriceKey(op.Product), EncodeInt(op.Price))
}

// MarketAuditor audits the accepted marketplace ops incrementally on the
// shared engine (audit.go). Order-ledger divergence that no serializable
// completion order explains means a checkout charged a price or cart that
// was never current at ANY serialization point — the write-skew between
// concurrent checkouts and price updates; divergence elsewhere (stock,
// carts) is a lost or doubled update. A blind price update racing a
// checkout is NOT an anomaly when some legal order explains the ledger —
// the precedence-graph verdict suppresses exactly those, so isolated
// cells must report zero without the verdict leaning on order confluence.
type MarketAuditor struct {
	*refAuditor
}

// NewMarketAuditor creates an empty auditor.
func NewMarketAuditor() *MarketAuditor {
	cons := NewConstraints().Check(NonNegative("negative stock", "mstock/", true))
	return &MarketAuditor{newRefAuditor(auditorConfig{
		app:  MarketApp(),
		cons: cons,
		compare: func(key string, got, want []byte) string {
			g, w := DecodeInt(got), DecodeInt(want)
			if g == w {
				return ""
			}
			if strings.HasPrefix(key, "order/") {
				return fmt.Sprintf("%s: charged %d, serial reference %d (checkout/price write skew)", key, g, w)
			}
			return fmt.Sprintf("%s: %d, serial reference %d", key, g, w)
		},
	})}
}

// RecordOp folds one accepted op into the reference in serial order.
// Queries are no-ops by construction and skipped.
func (a *MarketAuditor) RecordOp(op workload.MarketOp) {
	if op.Kind == workload.MarketQueryProduct {
		return
	}
	args, _ := json.Marshal(op)
	a.ObserveSerial(marketOpName(op), args)
}

// --- reservation variant (ROADMAP 4b) ----------------------------------------

// MarketAppReserved is the reservation-style marketplace: the same op
// names and mix as MarketApp, restructured so no op reads state another
// op writes concurrently. add-to-cart reserves — it escrows the
// client-quoted price under a per-reservation key (written exactly once)
// and decrements stock commutatively; checkout claims its own
// reservations (keys only it ever touches) and moves the escrowed
// amounts to the order ledger. Every write is then a pure function of
// the op's arguments and private keys, so the eventual cells audit to
// exactly zero anomalies — commutativity and unique key ownership buy
// what the drifting MarketApp needs isolation for. The trade: more keys
// and writes per op (the extra-ops cost E21's reserved row measures),
// stock escrowed at cart time (abandoned carts hold it; stock may
// backorder below zero since nothing un-reserves), and the quoted price
// honored even if update-price lands in between — a business policy,
// not an anomaly.
func MarketAppReserved() *App {
	parse, keys := workload.ParseMarketOp, workload.MarketOp.ReservedKeys
	return NewApp("market-res").
		Register(opFor(workload.MarketAddToCart.String(), parse, keys, marketReserve)).
		Register(opFor(workload.MarketCheckout.String(), parse, keys, marketClaim)).
		Register(queryFor(workload.MarketQueryProduct.String(), parse, keys, marketQueryProduct)).
		Register(opFor(workload.MarketUpdatePrice.String(), parse, keys, marketUpdatePrice))
}

// marketReserve escrows qty items at the client-quoted price: one Put to
// a virgin per-reservation key plus one commutative stock decrement.
// Re-execution re-puts the same value — idempotent by construction.
func marketReserve(tx Txn, op workload.MarketOp) ([]byte, error) {
	qty := int64(op.Qty)
	if qty < 1 {
		qty = 1
	}
	amount := qty * op.Price
	if err := tx.Put(workload.ReservationKey(op.User, op.ResvID), EncodeInt(amount)); err != nil {
		return nil, err
	}
	return EncodeInt(amount), tx.Add(workload.MarketStockKey(op.Product), -qty)
}

// marketClaim settles the claimed reservations into the order ledger.
// Each claimed key was written by exactly one reserve and is claimed by
// exactly this checkout, so the read can never race another writer; a
// reservation whose write is still in flight reads as absent and simply
// stays open — consistent with ordering this checkout before it.
func marketClaim(tx Txn, op workload.MarketOp) ([]byte, error) {
	var total int64
	for _, id := range op.Claims {
		key := workload.ReservationKey(op.User, id)
		raw, found, err := tx.Get(key)
		if err != nil {
			return nil, err
		}
		amount := DecodeInt(raw)
		if !found || amount <= 0 {
			continue
		}
		if err := tx.Put(key, EncodeInt(0)); err != nil {
			return nil, err
		}
		if err := tx.Add(workload.OrderKey(op.User), amount); err != nil {
			return nil, err
		}
		total += amount
	}
	if total == 0 {
		return nil, ErrEmptyCart
	}
	return EncodeInt(total), nil
}

// NewMarketReservedAuditor audits the reservation variant on the shared
// engine. There is no live stock constraint — escrowed stock may
// legitimately backorder below zero — so the whole verdict is the
// settled-state comparison against the serial reference, which the
// variant must pass with zero anomalies on every cell.
func NewMarketReservedAuditor() *MarketAuditor {
	return &MarketAuditor{newRefAuditor(auditorConfig{
		app: MarketAppReserved(),
		compare: func(key string, got, want []byte) string {
			g, w := DecodeInt(got), DecodeInt(want)
			if g == w {
				return ""
			}
			return fmt.Sprintf("%s: %d, serial reference %d", key, g, w)
		},
	})}
}
