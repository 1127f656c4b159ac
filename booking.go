package tca

import (
	"encoding/json"
	"fmt"

	"tca/internal/workload"
)

// The trip-booking saga from examples/booking promoted to a first-class
// App (ISSUE 10 satellite): a reservation books one flight seat and one
// hotel room and records the trip on the user's ledger — the multi-key
// atomic step the example drove through a hand-rolled saga orchestrator,
// now deployable under all five programming models. A cancellation
// releases exactly what its reservation took (the workload generator
// cancels only trips it booked, so counts never legitimately go
// negative); query-trip is the ReadOnly path. Every mutation is a ±1
// counter delta — fully commutative — so every cell must audit clean:
// like the social mix, this measures the cost of the multi-service
// atomic step, not anomaly tolerance.
//
// State encoding (all values EncodeInt: an int64 as a binary zig-zag varint):
//
//	flight/F  seats sold on flight F
//	hotel/H   rooms sold at hotel H
//	trip/U    trips currently held by user U

// bookingQueryResult is query-trip's wire result.
type bookingQueryResult struct {
	Trips int64 `json:"trips"`
}

// BookingApp builds the trip-booking App. Op arguments are JSON-encoded
// workload.BookingOp descriptors, decoded by workload.ParseBookingOp.
func BookingApp() *App {
	parse, keys := workload.ParseBookingOp, workload.BookingOp.Keys
	return NewApp("booking").
		Register(opFor(workload.BookingReserve.String(), parse, keys, bookingReserve)).
		Register(opFor(workload.BookingCancel.String(), parse, keys, bookingCancel)).
		Register(queryFor(workload.BookingQuery.String(), parse, keys, bookingQuery))
}

// bookingOpName maps a generated op to its registered op name.
func bookingOpName(op workload.BookingOp) string { return op.Kind.String() }

// bookingReserve books the trip: one seat, one room, one ledger entry,
// atomically under whatever mechanism the cell provides.
func bookingReserve(tx Txn, op workload.BookingOp) ([]byte, error) {
	if err := tx.Add(workload.FlightKey(op.Flight), 1); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.HotelKey(op.Hotel), 1); err != nil {
		return nil, err
	}
	return nil, tx.Add(workload.TripKey(op.User), 1)
}

// bookingCancel releases a previously booked trip — the compensation the
// example's saga ran, as a first-class inverse op.
func bookingCancel(tx Txn, op workload.BookingOp) ([]byte, error) {
	if err := tx.Add(workload.FlightKey(op.Flight), -1); err != nil {
		return nil, err
	}
	if err := tx.Add(workload.HotelKey(op.Hotel), -1); err != nil {
		return nil, err
	}
	return nil, tx.Add(workload.TripKey(op.User), -1)
}

// bookingQuery reads the user's trip count.
func bookingQuery(tx Txn, op workload.BookingOp) ([]byte, error) {
	raw, _, err := tx.Get(workload.TripKey(op.User))
	if err != nil {
		return nil, err
	}
	out, _ := json.Marshal(bookingQueryResult{Trips: DecodeInt(raw)})
	return out, nil
}

// BookingAuditor audits the booking mix on the shared engine: every
// seat, room, and trip counter must equal the delta-maintained
// expectation from the accepted ops (the mix commutes, so any divergence
// is a lost or doubled booking), and no counter may settle negative — a
// cancellation that applied without its reservation.
type BookingAuditor struct {
	*refAuditor
}

// NewBookingAuditor creates an empty auditor.
func NewBookingAuditor() *BookingAuditor {
	cons := NewConstraints().
		Check(NonNegative("negative booking count", "flight/", false)).
		Check(NonNegative("negative booking count", "hotel/", false)).
		KeyTotal(KeyTotal{
			Name: "booking counters",
			Delta: func(op string, args []byte) map[string]int64 {
				b, err := workload.ParseBookingOp(args)
				if err != nil {
					return nil
				}
				var d int64
				switch op {
				case workload.BookingReserve.String():
					d = 1
				case workload.BookingCancel.String():
					d = -1
				default:
					return nil
				}
				return map[string]int64{
					workload.FlightKey(b.Flight): d,
					workload.HotelKey(b.Hotel):   d,
					workload.TripKey(b.User):     d,
				}
			},
			Describe: func(key string, got, want int64) string {
				return fmt.Sprintf("%s: %d booked, expected %d (lost or doubled booking)", key, got, want)
			},
		})
	return &BookingAuditor{newRefAuditor(auditorConfig{
		app:  BookingApp(),
		cons: cons,
	})}
}

// RecordOp folds one accepted op into the reference in serial order.
// Queries are no-ops by construction and skipped.
func (a *BookingAuditor) RecordOp(op workload.BookingOp) {
	if op.Kind == workload.BookingQuery {
		return
	}
	args, _ := json.Marshal(op)
	a.ObserveSerial(bookingOpName(op), args)
}
