package tca

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"unicode"

	"tca/internal/workload"
)

// Differential fuzz targets, one per op-argument type: every parser must
// agree with json.Unmarshal into the same struct. On an input whose
// objects repeat no member name (under encoding/json's case folding),
// both succeed with equal values or both fail; on any input the parser
// returns without panicking.

// checkArgsParser runs one differential check.
func checkArgsParser[A any](t *testing.T, data []byte, parse func([]byte) (A, error)) {
	t.Helper()
	got, err := parse(data)
	if repeatsName(data) {
		return // encoding/json merges repeated members into one field; the parser need not
	}
	var want A
	wantErr := json.Unmarshal(data, &want)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%q: parser error %v, encoding/json error %v", data, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%q: parser %+v, encoding/json %+v", data, got, want)
	}
}

// repeatsName reports whether some object in data names a member twice,
// comparing names as encoding/json folds them. Invalid JSON repeats
// nothing: both decoders must reject it.
func repeatsName(data []byte) bool {
	type frame struct {
		object, atKey bool
		seen          map[string]bool
	}
	var stack []*frame
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].atKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		d, delim := tok.(json.Delim)
		switch n := len(stack); {
		case delim && (d == '}' || d == ']'):
			stack = stack[:n-1]
			valueDone()
		case n > 0 && stack[n-1].object && stack[n-1].atKey:
			name := foldName(tok.(string))
			if stack[n-1].seen[name] {
				return true
			}
			stack[n-1].seen[name] = true
			stack[n-1].atKey = false
		case delim:
			stack = append(stack, &frame{object: d == '{', atKey: d == '{', seen: map[string]bool{}})
		default:
			valueDone()
		}
	}
}

// foldName maps every rune to the smallest rune of its case-folding
// orbit, so two names fold equal exactly when bytes.EqualFold holds.
func foldName(s string) string {
	out := []rune(s)
	for i, r := range out {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < out[i] {
				out[i] = f
			}
		}
	}
	return string(out)
}

// addArgsSeeds seeds a parser's corpus with the encoded ops plus the
// shapes that separate a faithful parser from a sloppy one: the tagged
// form a traced benchmark run sends, case variants, nulls, nested
// unknown values, escaped and non-ASCII names, floats, overflows and
// truncations.
func addArgsSeeds(f *testing.F, ops ...any) {
	for _, op := range ops {
		raw, err := json.Marshal(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(append([]byte(`{"bench_rid":42,`), raw[1:]...))
		f.Add(bytes.ToLower(raw))
		f.Add(bytes.ToUpper(raw))
		for i := 1; i < len(raw); i += 7 {
			f.Add(raw[:i])
		}
	}
	for _, s := range []string{
		``, ` `, `null`, ` null `, `{}`, `[]`, `0`, `"x"`, `true`, `{} x`, `{}{}`,
		`{"bench_rid":1}`, `{"BENCH_RID":{"a":[1,{"b":null}],"c":"é😀"}}`,
		`{"x":[[[[[]]]]],"y":{"z":{}},"w":-0.5e-3,"v":false,"u":"\"\\\/\b\f\n\r\t"}`,
		`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":.5}`, `{"x":1e}`, `{"x":"\x"}`, `{"x":"\u12"}`,
		"{\"x\":\"\x01\"}", "{\"x\":\"\xff\xfe\"}", `{"x":tru}`, `{"x":1,}`, `{,"x":1}`, `{"x" 1}`,
		`{"kind":null,"user":null,"from":null,"account":null,"items":null,"claims":null,"followers":null}`,
		`{"Kind":1.5}`, `{"User":1e2}`, `{"Amount":9223372036854775807}`, `{"Amount":-9223372036854775808}`,
		`{"Amount":9223372036854775808}`, `{"Amount":-9223372036854775809}`, `{"To":-0}`,
		`{"amount":"5"}`, `{"user":true}`, `{"Remote":1}`, `{"Remote":true}`, `{"Remote":"true"}`,
		`{"Kind":2,"Kind":3}`, "{\"Re\u017fvid\":7}", `{"User":3}`, `{"user":4}`,
		"{\"\u212aind\":1}", `{"\u212aind":2}`, `{"\u004bIND":3}`, `{"\u017fOME":1,"Po\u017ftid":9}`,
		`{"\ud83d\ude00":1,"\udc00user":2}`, `{"Followers":[1,null,3]}`, `{"Followers":[]}`, `{"Followers":{}}`,
		`{"Followers":[1.5]}`, `{"Claims":[9223372036854775808]}`, `{"Items":[]}`, `{"Items":[null]}`,
		`{"Items":[{"itemid":3,"QTY":2,"extra":[1]}]}`, `{"Items":[1]}`, `{"Items":[{"ItemID":"3"}]}`,
		`{"user":1,"User":2}`, "\t{\r\n\"user\" : 5 }\n",
	} {
		f.Add([]byte(s))
	}
}

func FuzzParseTPCCOp(f *testing.F) {
	cfg := workload.DefaultTPCCConfig(4)
	cfg.QueryFrac = 0.5
	cfg.RemoteFrac = workload.RemoteFrac(0.5)
	addArgsSeeds(f, firstOfEachKind(workload.NewTPCC(1, cfg).Next, func(op workload.TPCCOp) int { return int(op.Kind) })...)
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, workload.ParseTPCCOp) })
}

func FuzzParseMarketOp(f *testing.F) {
	kind := func(op workload.MarketOp) int { return int(op.Kind) }
	ops := firstOfEachKind(workload.NewMarket(1, workload.DefaultMarketConfig()).Next, kind)
	ops = append(ops, firstOfEachKind(workload.NewReservedMarket(1, workload.DefaultMarketConfig()).Next, kind)...)
	addArgsSeeds(f, ops...)
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, workload.ParseMarketOp) })
}

func FuzzParseSocialOp(f *testing.F) {
	addArgsSeeds(f, firstOfEachKind(workload.NewSocialChurn(1, 32, 8, 0.4).Next, func(op workload.SocialOp) int { return int(op.Kind) })...)
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, workload.ParseSocialOp) })
}

func FuzzParseBookingOp(f *testing.F) {
	addArgsSeeds(f, firstOfEachKind(workload.NewBooking(1, 16, 4, 4, 0.3, 0.3).Next, func(op workload.BookingOp) int { return int(op.Kind) })...)
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, workload.ParseBookingOp) })
}

func FuzzParseLedgerOp(f *testing.F) {
	addArgsSeeds(f, firstOfEachKind(workload.NewLedger(1, 16, 0.3).Next, func(op workload.LedgerOp) int { return int(op.Kind) })...)
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, workload.ParseLedgerOp) })
}

func FuzzParseBankDepositArgs(f *testing.F) {
	addArgsSeeds(f, bankDepositArgs{Account: 3, Amount: 100}, bankDepositArgs{Account: -1, Amount: -7})
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, parseBankDepositArgs) })
}

func FuzzParseBankTransferArgs(f *testing.F) {
	addArgsSeeds(f, bankTransferArgs{From: 0, To: 1, Amount: 25}, bankTransferArgs{From: 7, To: 2, Amount: 1 << 40})
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, parseBankTransferArgs) })
}

func FuzzParseSocialTimelineArgs(f *testing.F) {
	addArgsSeeds(f, socialTimelineArgs{User: 5}, socialTimelineArgs{User: 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkArgsParser(t, data, parseSocialTimelineArgs) })
}

// firstOfEachKind draws from a generator until it has seen every kind
// among the first few hundred ops, returning the first op of each.
func firstOfEachKind[O any](next func() O, kind func(O) int) []any {
	seen := map[int]bool{}
	var out []any
	for i := 0; i < 500; i++ {
		if op := next(); !seen[kind(op)] {
			seen[kind(op)] = true
			out = append(out, op)
		}
	}
	return out
}

// TestMalformedArgsWriteNothing: on every cell, a request whose arguments
// do not parse fails with the parse error and writes nothing — its op
// declares no keys, and its body fails before touching state.
func TestMalformedArgsWriteNothing(t *testing.T) {
	malformed := []struct{ op, args string }{
		{"new-order", `{"Kind":0,"Warehouse":1,"District":2,"Items":[{"ItemID":3,"Qty":4}]`},
		{"new-order", `{"Kind":0,"Warehouse":1,"District":2,"Items":[{"ItemID":3,"Qty":4.5}]}`},
		{"payment", `{"Kind":1,"Warehouse":1,"District":2,"Customer":3,"Amount":"50"}`},
		{"payment", `{"Kind":1,"Warehouse":1,"District":2,"Customer":3,"Amount":50} {}`},
		{"order-status", `{"Kind":2,"Warehouse":1,"District":2,"Customer":3,}`},
	}
	app := TPCCApp()
	for _, m := range malformed {
		if op, _ := app.Op(m.op); op.Keys([]byte(m.args)) != nil {
			t.Errorf("%s %s declares keys %v", m.op, m.args, op.Keys([]byte(m.args)))
		}
	}
	touched := []string{workload.DistrictKey(1, 2), workload.StockKey(1, 3), workload.WarehouseKey(1), workload.CustomerKey(1, 2, 3)}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			cell, err := Deploy(model, TPCCApp(), NewEnv(1, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			for i, m := range malformed {
				if _, err := cell.Invoke(fmt.Sprintf("bad-%d", i), m.op, []byte(m.args), nil); err == nil {
					t.Errorf("%s %s: no error", m.op, m.args)
				}
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			for _, k := range touched {
				if v, found, err := cell.Read(k); err != nil || found {
					t.Errorf("%s = %x (found %v, err %v) after malformed requests only", k, v, found, err)
				}
			}
		})
	}
}

// TestTaggedArgsMatchUntagged: a leading unknown member — the request id
// a traced benchmark run prepends — changes nothing. The same seeded
// stream, tagged and untagged, leaves the same state on every cell.
func TestTaggedArgsMatchUntagged(t *testing.T) {
	cfg := workload.DefaultTPCCConfig(2)
	cfg.Items, cfg.QueryFrac = 20, 0.2
	ops := make([]workload.TPCCOp, 80)
	keys := map[string]bool{}
	gen := workload.NewTPCC(3, cfg)
	for i := range ops {
		ops[i] = gen.Next()
		for _, k := range ops[i].Keys() {
			keys[k] = true
		}
	}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			var state [2]map[string]string
			for tagged := range state {
				cell, err := Deploy(model, TPCCApp(), NewEnv(1, 3))
				if err != nil {
					t.Fatal(err)
				}
				for i, op := range ops {
					args, _ := json.Marshal(op)
					if tagged == 1 {
						args = append([]byte(fmt.Sprintf(`{"bench_rid":%d,`, i+1)), args[1:]...)
					}
					if _, err := cell.Invoke(fmt.Sprintf("r%d", i), tpccOpName(op), args, nil); err != nil {
						t.Fatalf("op %d (%s): %v", i, tpccOpName(op), err)
					}
				}
				if err := cell.Settle(); err != nil {
					t.Fatal(err)
				}
				state[tagged] = map[string]string{}
				for k := range keys {
					v, _, err := cell.Read(k)
					if err != nil {
						t.Fatal(err)
					}
					state[tagged][k] = string(v)
				}
				cell.Close()
			}
			written := 0
			for _, v := range state[0] {
				if v != "" {
					written++
				}
			}
			if written == 0 {
				t.Fatal("the stream wrote nothing")
			}
			if !reflect.DeepEqual(state[0], state[1]) {
				t.Errorf("tagged state %v, untagged %v", state[1], state[0])
			}
		})
	}
}
