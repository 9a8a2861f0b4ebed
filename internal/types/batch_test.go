package types

import (
	"strings"
	"testing"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// richRecords returns uniform-width records covering every value kind,
// including a kind-mixed column (col 3) that forces generic migration.
func richRecords() []Record {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})
	line := geo.NewLineString([]geo.Point{{X: 1, Y: 1}, {X: 2, Y: 3}})
	return []Record{
		{NewInt64(1), NewString("alpha"), NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
			NewInt64(7), NewPolygon(poly), NewBool(true), NewPoint(geo.Point{X: 5, Y: 6}),
			NewInterval(interval.Interval{Start: 3, End: 9}), Null, NewFloat64(2.5)},
		{NewInt64(2), NewString("beta"), NewRect(geo.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}),
			NewString("mixed"), NewLineString(line), NewBool(false), NewPoint(geo.Point{X: -1, Y: 0}),
			NewInterval(interval.Interval{Start: -5, End: 5}), Null, NewFloat64(-0.25)},
		{NewInt64(3), NewString(""), NewRect(geo.Rect{MinX: -3, MinY: -3, MaxX: 0, MaxY: 0}),
			Null, NewList([]Value{NewInt64(1), NewString("x")}), NewBool(true),
			NewPoint(geo.Point{X: 0, Y: 0}), NewInterval(interval.Interval{Start: 0, End: 0}),
			Null, NewFloat64(1e300)},
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("record %d width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !got[i][j].Equal(want[i][j]) {
				t.Fatalf("record %d field %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestBatchRoundTripAllKinds(t *testing.T) {
	recs := richRecords()
	buf := EncodeBatch(recs)
	if buf[0] != batchFormatColumnar {
		t.Fatalf("uniform records encoded with format 0x%02x, want columnar", buf[0])
	}
	got, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	sameRecords(t, got, recs)
}

func TestBatchRowWiseFallbackRagged(t *testing.T) {
	recs := []Record{
		{NewInt64(1), NewString("a")},
		{NewInt64(2)},
		{NewInt64(3), NewString("c"), NewBool(true)},
	}
	buf := EncodeBatch(recs)
	if buf[0] != batchFormatRowWise {
		t.Fatalf("ragged records encoded with format 0x%02x, want row-wise", buf[0])
	}
	got, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	sameRecords(t, got, recs)
}

func TestBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil), nil)
	if err != nil {
		t.Fatalf("DecodeBatch(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch decoded to %d records", len(got))
	}
}

func TestDecodeBatchCorruption(t *testing.T) {
	recs := richRecords()
	buf := EncodeBatch(recs)

	if _, err := DecodeBatch(buf[:len(buf)/2], nil); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
	if _, err := DecodeBatch(buf[:1], nil); err == nil {
		t.Fatal("header-only batch decoded without error")
	}
	if _, err := DecodeBatch(nil, nil); err == nil {
		t.Fatal("empty input decoded without error")
	}
	if _, err := DecodeBatch([]byte{0x7c}, nil); err == nil {
		t.Fatal("unknown format byte decoded without error")
	}

	// Absurd width: claims ~2^63 columns in a tiny buffer.
	e := wire.NewEncoder(16)
	e.Byte(batchFormatColumnar)
	e.Raw([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := DecodeBatch(e.Bytes(), nil); err == nil {
		t.Fatal("absurd width decoded without error")
	}

	// Absurd rows: one int64 column, row count far beyond the buffer.
	e = wire.NewEncoder(16)
	e.Byte(batchFormatColumnar)
	e.Uvarint(1)
	e.Byte(byte(KindInt64))
	e.Raw([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := DecodeBatch(e.Bytes(), nil); err == nil {
		t.Fatal("absurd row count decoded without error")
	}

	// Zero columns but a nonzero row claim is structurally invalid.
	e = wire.NewEncoder(16)
	e.Byte(batchFormatColumnar)
	e.Uvarint(0)
	e.Uvarint(3)
	if _, err := DecodeBatch(e.Bytes(), nil); err == nil {
		t.Fatal("0-column batch with rows decoded without error")
	}

	// An invalid column tag (a reference kind never written as a typed
	// column) must be rejected.
	e = wire.NewEncoder(16)
	e.Byte(batchFormatColumnar)
	e.Uvarint(1)
	e.Byte(byte(KindPolygon))
	e.Uvarint(0)
	if _, err := DecodeBatch(e.Bytes(), nil); err == nil {
		t.Fatal("typed polygon column tag decoded without error")
	}
}

func TestBatchPoolReuse(t *testing.T) {
	p := NewBatchPool()
	b := p.Get(3)
	if b.Width() != 3 {
		t.Fatalf("pooled batch width %d, want 3", b.Width())
	}
	// A frame past stagedDecodeMinRows stages its columns in the
	// scratch batch, leaving rows behind for the pool to reset.
	recs := batch(stagedDecodeMinRows)
	got, err := DecodeBatch(EncodeBatch(recs), b)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, recs)
	if b.Rows() != len(recs) {
		t.Fatalf("staged decode left %d rows in scratch, want %d", b.Rows(), len(recs))
	}
	p.Put(b)
	again := p.Get(2)
	if again != b {
		t.Fatal("pool did not reuse the returned batch")
	}
	if again.Rows() != 0 || again.Width() != 2 {
		t.Fatalf("reused batch not reset: rows=%d width=%d", again.Rows(), again.Width())
	}
	gets, hits := p.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("pool stats gets=%d hits=%d, want 2/1", gets, hits)
	}
	p.Put(nil) // must be a no-op
}

func TestBatchScratchReuseAcrossDecodes(t *testing.T) {
	scratch := NewBatch(0)
	for round := 0; round < 3; round++ {
		recs := batch(32)
		got, err := DecodeBatch(EncodeBatch(recs), scratch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameRecords(t, got, recs)
	}
}

// FuzzDecodeBatch drives the batch frame decoder with arbitrary bytes.
// It guards every cross-node transfer, every spill/checkpoint frame and
// every served result batch: it must never panic or over-allocate on
// damaged input, and anything it accepts must survive a re-encode round
// trip.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(richRecords()))
	f.Add(EncodeBatch(nil))
	f.Add(EncodeBatch(batch(5)))
	f.Add(EncodeBatch([]Record{{NewInt64(1)}, {NewInt64(1), Null}})) // row-wise
	full := EncodeBatch(batch(7))
	f.Add(full[:len(full)/2])
	f.Add(full[:1])
	f.Add([]byte{batchFormatColumnar, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	pad := EncodeBatch([]Record{{Null, NewString(strings.Repeat("n", 40))}})
	f.Add(pad)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchRoundTrip(t, data, EncodeBatch)
	})
}

// checkBatchRoundTrip decodes data and, if DecodeBatch accepts it,
// checks that decode(encode(decode(x))) equals decode(x) field for
// field. Rejection is always acceptable; panics are not.
func checkBatchRoundTrip(t *testing.T, data []byte, encode func([]Record) []byte) {
	recs, err := DecodeBatch(data, nil)
	if err != nil {
		return
	}
	again, err := DecodeBatch(encode(recs), nil)
	if err != nil {
		t.Fatalf("re-decode of accepted input failed: %v", err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip changed record count: %d != %d", len(again), len(recs))
	}
	for i := range recs {
		if len(again[i]) != len(recs[i]) {
			t.Fatalf("record %d: field count %d != %d", i, len(again[i]), len(recs[i]))
		}
		for j := range recs[i] {
			if !again[i][j].Equal(recs[i][j]) && !sameWire(again[i][j], recs[i][j]) {
				t.Fatalf("record %d field %d: %v != %v", i, j, again[i][j], recs[i][j])
			}
		}
	}
}

// benchHashRecords builds the record shape the hash path shuffles for
// an equi-join COUNT(*): three int64 columns — bucket id, join key,
// and the row id. ExchangeHash moves these rows verbatim, so this is
// the frame payload the COMBINE side of a hash join ingests.
func benchHashRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			NewInt64(int64(i) % 512),
			NewInt64(int64(i) % 997),
			NewInt64(int64(i)),
		}
	}
	return recs
}

// benchExtendedRecords builds the widest shape the shuffle carries:
// the extended [bucket_id, key, fields...] layout the PARTITION phase
// emits (here the interval-join shape — bucket id, interval key, then
// the row's id, vendor, and interval fields).
func benchExtendedRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		iv := interval.Interval{Start: int64(i), End: int64(i) + 300}
		recs[i] = Record{
			NewInt64(int64(i) % 512),
			NewInterval(iv),
			NewInt64(int64(i)),
			NewInt64(1 + int64(i)%2),
			NewInterval(iv),
		}
	}
	return recs
}

var codecArms = []struct {
	name string
	bs   int
}{{"batched", 1024}, {"record", 1}}

// frameSlices cuts recs into frame-sized windows.
func frameSlices(recs []Record, bs int) [][]Record {
	var out [][]Record
	for lo := 0; lo < len(recs); lo += bs {
		hi := lo + bs
		if hi > len(recs) {
			hi = len(recs)
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

// BenchmarkCombineIngest measures the COMBINE-side frame ingest — the
// receive edge of the hash-path shuffle, where each arriving frame is
// decoded and its records materialized — at the default batch size
// against record-at-a-time framing (one row per frame, the
// WithBatchSize(1) baseline).
func BenchmarkCombineIngest(b *testing.B) {
	recs := benchHashRecords(60000)
	for _, arm := range codecArms {
		b.Run(arm.name, func(b *testing.B) {
			dec := NewBatch(0)
			var frames [][]byte
			for _, fr := range frameSlices(recs, arm.bs) {
				frames = append(frames, EncodeBatch(fr))
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				total := 0
				for _, f := range frames {
					out, err := DecodeBatch(f, dec)
					if err != nil {
						b.Fatal(err)
					}
					total += len(out)
				}
				if total != len(recs) {
					b.Fatal("row count mismatch")
				}
			}
		})
	}
}

// BenchmarkBatchCodec measures the full shuffle frame codec (send-side
// encode plus receive-side ingest), the cost transferFrame pays per
// cross-node hop.
func BenchmarkBatchCodec(b *testing.B) {
	recs := benchExtendedRecords(60000)
	for _, arm := range codecArms {
		b.Run(arm.name, func(b *testing.B) {
			dec := NewBatch(0)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				total := 0
				for _, fr := range frameSlices(recs, arm.bs) {
					out, err := DecodeBatch(EncodeBatch(fr), dec)
					if err != nil {
						b.Fatal(err)
					}
					total += len(out)
				}
				if total != len(recs) {
					b.Fatal("row count mismatch")
				}
			}
		})
	}
}
