package workload

import "tca/internal/wire"

// One parse function per op descriptor: each decodes the JSON the
// generators' descriptors are marshalled to exactly as json.Unmarshal into
// the same struct would (wire.JSONReader states the rules), without
// reflection. Member names are the struct's field names, matched
// case-insensitively, so the cases below are the lower-cased field names.

// ParseTPCCOp decodes a JSON-encoded TPCCOp.
func ParseTPCCOp(b []byte) (TPCCOp, error) {
	var op TPCCOp
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		switch string(r.Key()) {
		case "kind":
			op.Kind = TPCCKind(r.Int())
		case "warehouse":
			op.Warehouse = r.Int()
		case "district":
			op.District = r.Int()
		case "customer":
			op.Customer = r.Int()
		case "items":
			op.Items = parseTPCCItems(&r)
		case "amount":
			op.Amount = r.Int64()
		case "threshold":
			op.Threshold = r.Int64()
		case "remote":
			op.Remote = r.Bool()
		case "remotewarehouse":
			op.RemoteWarehouse = r.Int()
		default:
			r.Skip()
		}
	}
	return op, r.Finish()
}

// parseTPCCItems reads TPCCOp.Items: null is a nil slice, [] an empty one.
func parseTPCCItems(r *wire.JSONReader) []TPCCItem {
	var items []TPCCItem
	list := r.Array()
	if !list.Null() {
		items = make([]TPCCItem, 0, 16) // a generated op carries 5–15 items
	}
	for r.Next(&list) {
		var it TPCCItem
		for obj := r.Object(); r.Next(&obj); {
			switch string(r.Key()) {
			case "itemid":
				it.ItemID = r.Int()
			case "qty":
				it.Qty = r.Int()
			default:
				r.Skip()
			}
		}
		items = append(items, it)
	}
	return items
}

// ParseMarketOp decodes a JSON-encoded MarketOp.
func ParseMarketOp(b []byte) (MarketOp, error) {
	var op MarketOp
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		switch string(r.Key()) {
		case "kind":
			op.Kind = MarketKind(r.Int())
		case "user":
			op.User = r.Int()
		case "product":
			op.Product = r.Int()
		case "qty":
			op.Qty = r.Int()
		case "price":
			op.Price = r.Int64()
		case "resvid":
			op.ResvID = r.Int64()
		case "claims":
			op.Claims = r.Int64s()
		default:
			r.Skip()
		}
	}
	return op, r.Finish()
}

// ParseSocialOp decodes a JSON-encoded SocialOp.
func ParseSocialOp(b []byte) (SocialOp, error) {
	var op SocialOp
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		switch string(r.Key()) {
		case "kind":
			op.Kind = SocialKind(r.Int())
		case "author":
			op.Author = r.Int()
		case "postid":
			op.PostID = r.Int64()
		case "followers":
			op.Followers = r.Ints()
		case "follower":
			op.Follower = r.Int()
		case "textlen":
			op.TextLen = r.Int()
		default:
			r.Skip()
		}
	}
	return op, r.Finish()
}

// ParseBookingOp decodes a JSON-encoded BookingOp.
func ParseBookingOp(b []byte) (BookingOp, error) {
	var op BookingOp
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		switch string(r.Key()) {
		case "kind":
			op.Kind = BookingKind(r.Int())
		case "user":
			op.User = r.Int()
		case "flight":
			op.Flight = r.Int()
		case "hotel":
			op.Hotel = r.Int()
		default:
			r.Skip()
		}
	}
	return op, r.Finish()
}

// ParseLedgerOp decodes a JSON-encoded LedgerOp.
func ParseLedgerOp(b []byte) (LedgerOp, error) {
	var op LedgerOp
	r := wire.NewJSONReader(b)
	for it := r.Object(); r.Next(&it); {
		switch string(r.Key()) {
		case "kind":
			op.Kind = LedgerKind(r.Int())
		case "from":
			op.From = r.Int()
		case "to":
			op.To = r.Int()
		case "amount":
			op.Amount = r.Int64()
		case "entry":
			op.Entry = r.Int64()
		default:
			r.Skip()
		}
	}
	return op, r.Finish()
}
