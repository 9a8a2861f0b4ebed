package types

import (
	"errors"
	"strings"
	"testing"

	"fudj/internal/wire"
)

// The shuffle layer relies on DecodeBatch rejecting damaged payloads so
// corrupted transfers can be detected and resent. These tests pin that
// corruption detection on the row-wise frame (format 0x02), the
// fallback for ragged or zero-width rows; batch_test.go covers the
// columnar frame.

func batch(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{NewInt64(int64(i)), NewString(strings.Repeat("x", 10))}
	}
	return recs
}

// rowWiseFrame encodes recs as a row-wise batch frame, whatever their
// shape, so uniform records exercise the fallback decoder too.
func rowWiseFrame(recs []Record) []byte {
	e := wire.NewEncoder(64)
	encodeRowWise(e, recs)
	return e.Bytes()
}

func TestDecodeRecordsRoundTrip(t *testing.T) {
	buf := rowWiseFrame(batch(10))
	if buf[0] != batchFormatRowWise {
		t.Fatalf("frame format 0x%02x, want row-wise", buf[0])
	}
	out, err := DecodeBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("decoded %d records, want 10", len(out))
	}
	for i, r := range out {
		if r[0].Int64() != int64(i) {
			t.Errorf("record %d: got %v", i, r[0])
		}
	}
}

func TestDecodeRecordsTruncated(t *testing.T) {
	buf := rowWiseFrame(batch(10))
	// Truncation at every possible point must error, never panic or
	// silently succeed with fewer records.
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", cut, len(buf))
		}
	}
}

func TestDecodeRecordsAbsurdCount(t *testing.T) {
	// A corrupted header claiming ~2^63 records must be rejected before
	// any allocation is attempted.
	buf := []byte{batchFormatRowWise, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	_, err := DecodeBatch(buf, nil)
	if err == nil {
		t.Fatal("absurd record count decoded successfully")
	}
	if !errors.Is(err, wire.ErrShortBuffer) {
		t.Errorf("want the bounded-count error (wire.ErrShortBuffer), got: %v", err)
	}
}

func TestDecodeRecordsFlippedByte(t *testing.T) {
	clean := rowWiseFrame(batch(8))
	rejected := 0
	for i := range clean {
		buf := append([]byte(nil), clean...)
		buf[i] ^= 0xff
		if _, err := DecodeBatch(buf, nil); err != nil {
			rejected++
		}
	}
	// Not every bit flip is detectable without checksums (a flipped
	// payload byte still decodes), but structural damage must be.
	if rejected == 0 {
		t.Error("no flipped-byte corruption was detected")
	}
}

func TestDecodeRecordsEmptyBatch(t *testing.T) {
	out, err := DecodeBatch(rowWiseFrame(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("decoded %d records from empty batch", len(out))
	}
}
