package tca

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"tca/internal/workload"
)

// TestTPCCCrossModelConservation is the application layer's conservation
// property: the identical seeded TPC-C stream, run under every cell of the
// taxonomy, must preserve the integrity constraints (stock never negative,
// warehouse YTD = sum of payments, district counters = NewOrder count) and
// — when each op settles before the next — produce exactly the serial
// reference state on every model.
func TestTPCCCrossModelConservation(t *testing.T) {
	cfg := workload.TPCCConfig{
		Warehouses: 2, Districts: 2, Customers: 20, Items: 50, NewOrderFrac: 0.55,
	}
	const ops = 120

	finals := make(map[ProgrammingModel]map[string]int64)
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(1, 3)
			cell, err := Deploy(model, TPCCApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			gen := workload.NewTPCC(42, cfg)
			audit := NewTPCCAuditor()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				args, _ := json.Marshal(op)
				if _, err := cell.Invoke(fmt.Sprintf("x%d", i), tpccOpName(op), args, nil); err != nil {
					t.Fatalf("op %d (%s): %v", i, tpccOpName(op), err)
				}
				audit.RecordOp(op)
				// Settling per op serializes even the eventual cell, so the
				// equality-with-reference assertion is exact for all five.
				if model == StatefulDataflow {
					if err := cell.Settle(); err != nil {
						t.Fatal(err)
					}
				}
			}
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("integrity violation: %s", a)
			}
			final := make(map[string]int64, len(audit.state))
			for key := range audit.state {
				raw, _, err := cell.Read(key)
				if err != nil {
					t.Fatal(err)
				}
				final[key] = DecodeInt(raw)
			}
			finals[model] = final
		})
	}

	// The deterministic and actor cells (and every other one, given the
	// serialized drive) must agree on the final state key for key.
	det, act := finals[Deterministic], finals[Actors]
	if det == nil || act == nil {
		t.Fatal("missing final states for deterministic/actor cells")
	}
	for key, v := range det {
		if act[key] != v {
			t.Errorf("%s: deterministic=%d actors=%d", key, v, act[key])
		}
	}
}

// TestBankAppSharesCellSemantics drives BankApp directly through the
// layer (no Bank wrapper) under every model: deposits then transfers from
// one seeded stream, money conserved everywhere.
func TestBankAppSharesCellSemantics(t *testing.T) {
	const accounts, transfers = 6, 30
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(2, 3)
			cell, err := Deploy(model, BankApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			for a := 0; a < accounts; a++ {
				args, _ := json.Marshal(bankDepositArgs{Account: a, Amount: 500})
				if _, err := cell.Invoke(fmt.Sprintf("seed-%d", a), "deposit", args, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			gen := workload.NewBank(9, accounts, 0)
			for i := 0; i < transfers; i++ {
				op := gen.Next()
				args, _ := json.Marshal(bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount})
				cell.Invoke(fmt.Sprintf("t%d", i), "transfer", args, nil)
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			var total int64
			for a := 0; a < accounts; a++ {
				raw, _, err := cell.Read(acctKey(a))
				if err != nil {
					t.Fatal(err)
				}
				total += DecodeInt(raw)
			}
			if total != accounts*500 {
				t.Fatalf("total = %d, want %d", total, accounts*500)
			}
		})
	}
}

// TestAppRegistryContract pins the App registry's misuse behavior: unknown
// ops error on Invoke, duplicate/incomplete registrations panic.
func TestAppRegistryContract(t *testing.T) {
	env := NewEnv(3, 3)
	cell, err := Deploy(Deterministic, BankApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	if _, err := cell.Invoke("x", "no-such-op", nil, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("incomplete op", func() { NewApp("x").Register(Op{Name: "a"}) })
	mustPanic("duplicate op", func() {
		app := NewApp("x")
		op := Op{
			Name: "a",
			Keys: func([]byte) []string { return nil },
			Body: func(Txn, []byte) ([]byte, error) { return nil, nil },
		}
		app.Register(op)
		app.Register(op)
	})
	if got := len(BankApp().Ops()); got != 2 {
		t.Fatalf("BankApp ops = %d, want 2", got)
	}
}

// TestCellsStoreArbitraryBytes pins that a value is bytes, not text: every
// cell must read back exactly what a body Put, including invalid UTF-8
// and NUL bytes that a JSON string field would have rewritten.
func TestCellsStoreArbitraryBytes(t *testing.T) {
	want := []byte{0xff, 0x00, 0xfe, 'o', 'k', 0xc3, 0x28, 0x80}
	app := NewApp("blob").Register(Op{
		Name: "put",
		Keys: func([]byte) []string { return []string{"blob"} },
		Body: func(tx Txn, _ []byte) ([]byte, error) { return nil, tx.Put("blob", want) },
	})
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			cell, err := Deploy(model, app, NewEnv(5, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			if _, err := cell.Invoke("put-1", "put", nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			got, found, err := cell.Read("blob")
			if err != nil || !found || !bytes.Equal(got, want) {
				t.Fatalf("Read = %q (found=%v, err=%v), want %q", got, found, err, want)
			}
		})
	}
}

func TestIntValueRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64} {
		enc := EncodeInt(v)
		if got := DecodeInt(enc); got != v {
			t.Errorf("DecodeInt(EncodeInt(%d)) = %d", v, got)
		}
		if len(enc) > binary.MaxVarintLen64 || cap(enc) != len(enc) {
			t.Errorf("EncodeInt(%d): len %d cap %d, want exact", v, len(enc), cap(enc))
		}
		// Every strict prefix of a multi-byte value is truncated, and a
		// trailing byte makes it a different record: both decode to zero.
		for n := 1; n < len(enc); n++ {
			if got := DecodeInt(enc[:n]); got != 0 {
				t.Errorf("EncodeInt(%d) cut to %d bytes decoded as %d, want 0", v, n, got)
			}
		}
		if got := DecodeInt(append(EncodeInt(v), 0)); got != 0 {
			t.Errorf("EncodeInt(%d) + trailing byte decoded as %d, want 0", v, got)
		}
	}
	if got := DecodeInt(nil); got != 0 {
		t.Errorf("DecodeInt(nil) = %d, want 0", got)
	}
	if got := DecodeInt([]byte{0x80}); got != 0 { // unterminated varint
		t.Errorf("DecodeInt(truncated) = %d, want 0", got)
	}
}

func TestIntListValueRoundTrip(t *testing.T) {
	full := make([]int64, socialTimelineCap)
	for i := range full {
		full[i] = int64(1<<20 - i*37)
	}
	for _, vs := range [][]int64{nil, {}, {7}, {math.MaxInt64, 0, math.MinInt64}, full} {
		enc := EncodeIntList(vs)
		if got := DecodeIntList(enc); !slices.Equal(got, vs) {
			t.Errorf("DecodeIntList(EncodeIntList(%v)) = %v", vs, got)
		}
		if cap(enc) != len(enc) {
			t.Errorf("EncodeIntList(%v): len %d cap %d, want exact", vs, len(enc), cap(enc))
		}
		for n := 0; n < len(enc); n++ {
			if got := DecodeIntList(enc[:n]); len(got) != 0 {
				t.Errorf("EncodeIntList(%v) cut to %d bytes decoded as %v, want empty", vs, n, got)
			}
		}
	}
	for name, raw := range map[string][]byte{
		"nil":             nil,
		"truncated count": {0x80},
		"oversized count": binary.AppendUvarint(nil, 1<<40),
		"count past data": {3, 2, 4},
		"trailing bytes":  append(EncodeIntList([]int64{5, 3}), 9),
	} {
		if got := DecodeIntList(raw); len(got) != 0 {
			t.Errorf("%s: DecodeIntList = %v, want empty", name, got)
		}
	}
}

// FuzzDecodeInt: any input decodes without panicking, and a value that
// decodes to nonzero re-encodes byte-identical (zero is also every
// malformed input's value, so it has many preimages).
func FuzzDecodeInt(f *testing.F) {
	for _, v := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		f.Add(EncodeInt(v))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{2, 0})
	f.Add([]byte(`42`)) // a JSON-era value
	f.Fuzz(func(t *testing.T, raw []byte) {
		if v := DecodeInt(raw); v != 0 && !bytes.Equal(EncodeInt(v), raw) {
			t.Fatalf("%x decoded as %d, which re-encodes as %x", raw, v, EncodeInt(v))
		}
	})
}

// FuzzDecodeIntList: any input decodes without panicking, and a nonempty
// decoded list re-encodes byte-identical.
func FuzzDecodeIntList(f *testing.F) {
	f.Add(EncodeIntList(nil))
	f.Add(EncodeIntList([]int64{9, 4, 1}))
	f.Add(EncodeIntList([]int64{math.MaxInt64, math.MinInt64}))
	f.Add([]byte{0x80})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte(`[3,2,1]`)) // a JSON-era value
	f.Fuzz(func(t *testing.T, raw []byte) {
		if vs := DecodeIntList(raw); len(vs) > 0 && !bytes.Equal(EncodeIntList(vs), raw) {
			t.Fatalf("%x decoded as %v, which re-encodes as %x", raw, vs, EncodeIntList(vs))
		}
	})
}
