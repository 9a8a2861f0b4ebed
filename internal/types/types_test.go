package types

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

func sampleValues() []Value {
	return []Value{
		Null,
		NewBool(true),
		NewBool(false),
		NewInt64(-42),
		NewInt64(1 << 40),
		NewFloat64(3.25),
		NewString(""),
		NewString("hello"),
		NewUUID(7, 9),
		NewPoint(geo.Point{X: 1, Y: 2}),
		NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 5}),
		NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})),
		NewInterval(interval.Interval{Start: 10, End: 20}),
		NewList([]Value{NewInt64(1), NewString("x")}),
	}
}

func TestValueAccessors(t *testing.T) {
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewInt64(5).Int64() != 5 {
		t.Error("Int64 accessor")
	}
	if NewFloat64(2.5).Float64() != 2.5 {
		t.Error("Float64 accessor")
	}
	if NewString("ab").Str() != "ab" {
		t.Error("Str accessor")
	}
	hi, lo := NewUUID(3, 4).UUID()
	if hi != 3 || lo != 4 {
		t.Error("UUID accessor")
	}
	if NewPoint(geo.Point{X: 1, Y: 2}).Point() != (geo.Point{X: 1, Y: 2}) {
		t.Error("Point accessor")
	}
	iv := NewInterval(interval.Interval{Start: 1, End: 2}).Interval()
	if iv.Start != 1 || iv.End != 2 {
		t.Error("Interval accessor")
	}
	if len(NewList([]Value{Null}).List()) != 1 {
		t.Error("List accessor")
	}
}

func TestAccessorPanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int64 on string: want panic")
		}
	}()
	_ = NewString("x").Int64()
}

func TestAsFloat(t *testing.T) {
	if f, ok := NewInt64(3).AsFloat(); !ok || f != 3 {
		t.Error("AsFloat int")
	}
	if f, ok := NewFloat64(1.5).AsFloat(); !ok || f != 1.5 {
		t.Error("AsFloat float")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat string should fail")
	}
}

func TestMBR(t *testing.T) {
	r, ok := NewPoint(geo.Point{X: 2, Y: 3}).MBR()
	if !ok || r != geo.RectFromPoint(geo.Point{X: 2, Y: 3}) {
		t.Error("point MBR")
	}
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	r, ok = NewRect(want).MBR()
	if !ok || r != want {
		t.Error("rect MBR")
	}
	if _, ok = NewInt64(1).MBR(); ok {
		t.Error("int MBR should fail")
	}
}

func TestEqualAndHash(t *testing.T) {
	vals := sampleValues()
	for i, a := range vals {
		for j, b := range vals {
			if (i == j) != a.Equal(b) {
				t.Errorf("Equal(%v, %v) = %v, want %v", a, b, a.Equal(b), i == j)
			}
			if i == j && a.Hash() != b.Hash() {
				t.Errorf("equal values hash differently: %v", a)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	if NewInt64(1).Compare(NewInt64(2)) != -1 || NewInt64(2).Compare(NewInt64(1)) != 1 {
		t.Error("int compare")
	}
	if NewString("a").Compare(NewString("b")) != -1 {
		t.Error("string compare")
	}
	if NewInt64(1).Compare(NewString("a")) == 0 {
		t.Error("cross-kind compare should not be 0")
	}
	for _, v := range sampleValues() {
		if v.Compare(v) != 0 {
			t.Errorf("Compare(%v, self) != 0", v)
		}
	}
}

func TestValueWireRoundTrip(t *testing.T) {
	for _, v := range sampleValues() {
		e := wire.NewEncoder(0)
		v.MarshalWire(e)
		got, err := DecodeValue(wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeValueBadKind(t *testing.T) {
	if _, err := DecodeValue(wire.NewDecoder([]byte{0xFF})); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := DecodeValue(wire.NewDecoder(nil)); err == nil {
		t.Error("empty buffer should error")
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Field{"id", KindInt64}, Field{"name", KindString})
	if s.Len() != 2 {
		t.Error("Len")
	}
	if s.Index("name") != 1 || s.Index("missing") != -1 {
		t.Error("Index")
	}
	if s.MustIndex("id") != 0 {
		t.Error("MustIndex")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Fields[0].Name != "name" {
		t.Error("Project")
	}
	if got := s.String(); got != "(id:int64, name:string)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex missing: want panic")
		}
	}()
	NewSchema(Field{"a", KindInt64}).MustIndex("b")
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate field: want panic")
		}
	}()
	NewSchema(Field{"a", KindInt64}, Field{"a", KindString})
}

func TestSchemaConcat(t *testing.T) {
	a := NewSchema(Field{"id", KindInt64}, Field{"v", KindString})
	b := NewSchema(Field{"id", KindInt64}, Field{"w", KindFloat64})
	c := a.Concat(b)
	wantNames := []string{"id", "v", "r_id", "w"}
	if c.Len() != 4 {
		t.Fatalf("Concat Len = %d", c.Len())
	}
	for i, n := range wantNames {
		if c.Fields[i].Name != n {
			t.Errorf("field %d = %q, want %q", i, c.Fields[i].Name, n)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{NewInt64(1), NewString("a"), NewPoint(geo.Point{X: 1, Y: 2})},
		{NewInt64(2), Null, NewBool(true)},
		{},
	}
	buf := EncodeBatch(recs)
	got, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if len(got[i]) != len(recs[i]) {
			t.Fatalf("record %d length mismatch", i)
		}
		for j := range recs[i] {
			if !got[i][j].Equal(recs[i][j]) {
				t.Errorf("record %d field %d: %v != %v", i, j, got[i][j], recs[i][j])
			}
		}
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{NewInt64(1)}
	c := r.Clone()
	c[0] = NewInt64(2)
	if r[0].Int64() != 1 {
		t.Error("Clone aliases original")
	}
}

// Property: random int/float/string records survive a wire round trip,
// and hashing is consistent with equality.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		r := Record{NewInt64(i), NewFloat64(fl), NewString(s), NewBool(b)}
		got, err := DecodeBatch(EncodeBatch([]Record{r}), nil)
		if err != nil || len(got) != 1 {
			return false
		}
		for j := range r {
			if !got[0][j].Equal(r[j]) {
				return false
			}
			if got[0][j].Hash() != r[j].Hash() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestQuickCompareConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt64(a), NewInt64(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
