package types

import (
	"bytes"
	"strings"
	"testing"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/wire"
)

// FuzzDecodeRecords drives DecodeBatch with row-wise frames (format
// 0x02), the fallback the encoder uses for ragged or zero-width rows.
// The decoder guards every cross-node transfer, so the contract is
// strict: it must never panic or over-allocate on damaged input, and
// anything it accepts must survive a row-wise re-encode round trip.
func FuzzDecodeRecords(f *testing.F) {
	// Seed with the corrupt_test.go corpus shapes: valid frames of
	// every value kind, truncations, an absurd record count, and
	// single-byte damage.
	rich := []Record{
		{NewInt64(-7), NewString("seed"), NewBool(true)},
		{NewFloat64(3.25), NewPoint(geo.Point{X: 1, Y: 2}), Null},
		{NewInterval(interval.Interval{Start: 10, End: 20}),
			NewPolygon(geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}))},
	}
	f.Add(rowWiseFrame(rich))
	f.Add(rowWiseFrame(nil))
	f.Add(rowWiseFrame(batch(3)))
	full := rowWiseFrame(batch(5))
	f.Add(full[:len(full)/2])                                                               // truncated mid-record
	f.Add(full[:1])                                                                         // truncated mid-header
	f.Add([]byte{batchFormatRowWise, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // ~2^63 records claimed
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchRoundTrip(t, data, rowWiseFrame)
	})
}

// sameWire reports whether two values have identical wire encodings —
// the equality that matters for codec round trips. Unlike Equal it
// treats bit-identical NaNs buried inside composite values (geometry
// coordinates, interval-derived floats) as equal.
func sameWire(a, b Value) bool {
	ea, eb := wire.NewEncoder(32), wire.NewEncoder(32)
	a.MarshalWire(ea)
	b.MarshalWire(eb)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// FuzzMemSize pins the memory accounting against arbitrary decoded
// records: estimates must be positive and grow with payload size,
// since the budget enforcement divides by them.
func FuzzMemSize(f *testing.F) {
	f.Add(EncodeBatch(batch(2)), 10)
	f.Add(EncodeBatch(nil), 1000)
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		recs, err := DecodeBatch(data, nil)
		if err != nil {
			return
		}
		if pad < 0 {
			pad = -pad
		}
		pad %= 1 << 16
		for _, r := range recs {
			sz := r.MemSize()
			if sz <= 0 {
				t.Fatalf("MemSize = %d for non-nil record", sz)
			}
			grown := append(append(Record{}, r...), NewString(strings.Repeat("p", pad)))
			if grown.MemSize() < sz+int64(pad) {
				t.Fatalf("MemSize did not grow with payload: %d -> %d (pad %d)",
					sz, grown.MemSize(), pad)
			}
		}
	})
}
