package types

import (
	"fmt"

	"fudj/internal/wire"
)

// Batch is the column-major decode scratch behind DecodeBatch: each
// column holds its scalar payloads in a typed slice, so a large
// columnar frame decodes with sequential appends and then materializes
// all of its records out of two arena allocations (Records) instead of
// two per record. BatchPool recycles batches so their vector capacity
// survives across frames.
//
// Column layout comes from the frame's column tags: scalar kinds get a
// typed vector, and reference kinds (polygon, linestring, list) or
// kind-mixed columns use a generic []Value vector that round-trips
// through DecodeValue.
type Batch struct {
	cols []vector
	rows int

	tags []byte // column-tag scratch reused across DecodeBatch calls
}

// batchGenericTag marks a kind-mixed or reference-kind column in the
// columnar wire frame; uniform columns use their Kind byte directly.
const batchGenericTag = 0xFF

// vector is one column of a batch. Exactly one representation is live:
// the typed slices when kind is a scalar kind and generic is false, or
// vals otherwise. Bool and Int64 share i; UUID and Interval use i+j;
// Point uses f+f2; Rect uses f..f4. A Null column stores nothing but
// the row count.
type vector struct {
	kind    Kind
	generic bool

	i, j          []int64
	f, f2, f3, f4 []float64
	s             []string
	vals          []Value
}

// NewBatch returns an empty batch of the given row width.
func NewBatch(width int) *Batch {
	return &Batch{cols: make([]vector, width)}
}

// Rows reports the number of rows in the batch.
func (b *Batch) Rows() int { return b.rows }

// Width reports the number of columns.
func (b *Batch) Width() int { return len(b.cols) }

// Reset truncates the batch to zero rows, retaining column capacity so
// a pooled batch reuses its vectors.
func (b *Batch) Reset(width int) {
	if cap(b.cols) < width {
		b.cols = make([]vector, width)
	}
	b.cols = b.cols[:width]
	for c := range b.cols {
		col := &b.cols[c]
		col.kind, col.generic = KindNull, false
		col.i, col.j = col.i[:0], col.j[:0]
		col.f, col.f2, col.f3, col.f4 = col.f[:0], col.f2[:0], col.f3[:0], col.f4[:0]
		col.s, col.vals = col.s[:0], col.vals[:0]
	}
	b.rows = 0
}

// typedKind reports whether k gets a typed vector (reference kinds and
// mixed columns use the generic representation).
func typedKind(k Kind) bool {
	switch k {
	case KindNull, KindBool, KindInt64, KindFloat64, KindString,
		KindUUID, KindPoint, KindRect, KindInterval:
		return true
	}
	return false
}

// transposeBlockRows sizes the row blocks of the Records transpose: one
// block of fat Value cells (rows × width × 80B) stays L1-resident
// across all of a batch's column passes.
const transposeBlockRows = 64

// Records materializes every row. All rows share one backing []Value
// arena and one []Record header arena: two allocations for the whole
// batch rather than one per record, which is where the decoded-shuffle
// allocation win comes from. The fill is a cache-blocked column-major
// transpose writing only each column's live fields — the arena is
// already zeroed, so a fat 9-word Value copy per cell is never paid.
func (b *Batch) Records() []Record {
	if b.rows == 0 {
		return nil
	}
	w := len(b.cols)
	arena := make([]Value, b.rows*w)
	recs := make([]Record, b.rows)
	for row := 0; row < b.rows; row++ {
		recs[row] = arena[row*w : (row+1)*w : (row+1)*w]
	}
	for base := 0; base < b.rows; base += transposeBlockRows {
		hi := base + transposeBlockRows
		if hi > b.rows {
			hi = b.rows
		}
		for c := range b.cols {
			b.cols[c].fillArena(arena, w, c, base, hi)
		}
	}
	return recs
}

// fillArena writes rows [base, hi) of the column into the row-major
// arena, touching only the fields its kind uses.
func (col *vector) fillArena(arena []Value, w, c, base, hi int) {
	if col.generic {
		for row := base; row < hi; row++ {
			arena[row*w+c] = col.vals[row]
		}
		return
	}
	switch col.kind {
	case KindNull:
		// The arena's zero Value is already Null.
	case KindBool, KindInt64:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = col.kind
			cell.i = col.i[row]
		}
	case KindFloat64:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = KindFloat64
			cell.f = col.f[row]
		}
	case KindString:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = KindString
			cell.s = col.s[row]
		}
	case KindUUID, KindInterval:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = col.kind
			cell.i = col.i[row]
			cell.j = col.j[row]
		}
	case KindPoint:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = KindPoint
			cell.f = col.f[row]
			cell.f2 = col.f2[row]
		}
	case KindRect:
		for row := base; row < hi; row++ {
			cell := &arena[row*w+c]
			cell.kind = KindRect
			cell.f = col.f[row]
			cell.f2 = col.f2[row]
			cell.f3 = col.f3[row]
			cell.f4 = col.f4[row]
		}
	}
}

// Columnar batch wire format. A frame is:
//
//	formatByte (batchFormatColumnar | batchFormatRowWise)
//
// Columnar payload:
//
//	uvarint(width)          — bounded by UvarintCount(1): every column
//	                          encodes at least its tag byte
//	column tags [width]     — one byte per column: the Kind for a
//	                          uniform typed column, batchGenericTag for
//	                          a generic one
//	uvarint(rows)           — every column encodes at least one byte
//	                          per row (Null columns pad one zero byte),
//	                          so rows is bounded by UvarintCount(1);
//	                          width == 0 requires rows == 0
//	column payloads [width] — per column, `rows` values with no
//	                          per-value kind bytes (generic columns use
//	                          full DecodeValue framing per value)
//
// Row-wise payload, used only for ragged or zero-width rows:
//
//	uvarint(count)          — bounded by UvarintCount(1): every record
//	                          encodes at least its field count
//	records [count]         — Record.MarshalWire each: uvarint(fields)
//	                          then one kind-tagged value per field
const (
	batchFormatColumnar = 0x01
	batchFormatRowWise  = 0x02
)

// decodeColumn reads one column's payload. rows is already bounded by
// the caller's UvarintCount, so the vector allocations here cannot be
// inflated past the frame size by a corrupted prefix.
func (b *Batch) decodeColumn(d *wire.Decoder, c, rows int) error {
	col := &b.cols[c]
	if col.generic {
		if cap(col.vals) < rows {
			col.vals = make([]Value, 0, rows)
		}
		for row := 0; row < rows; row++ {
			v, err := DecodeValue(d)
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.vals = append(col.vals, v)
		}
		return nil
	}
	switch col.kind {
	case KindNull:
		for row := 0; row < rows; row++ {
			if _, err := d.Byte(); err != nil {
				return fmt.Errorf("types: batch null column %d: %w", c, err)
			}
		}
	case KindBool, KindInt64:
		col.i = growInts(col.i, rows)
		for row := 0; row < rows; row++ {
			v, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.i = append(col.i, v)
		}
	case KindFloat64:
		col.f = growFloats(col.f, rows)
		for row := 0; row < rows; row++ {
			v, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.f = append(col.f, v)
		}
	case KindString:
		if cap(col.s) < rows {
			col.s = make([]string, 0, rows)
		}
		for row := 0; row < rows; row++ {
			v, err := d.String()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.s = append(col.s, v)
		}
	case KindUUID, KindInterval:
		col.i = growInts(col.i, rows)
		col.j = growInts(col.j, rows)
		for row := 0; row < rows; row++ {
			i, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			j, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.i = append(col.i, i)
			col.j = append(col.j, j)
		}
	case KindPoint:
		col.f = growFloats(col.f, rows)
		col.f2 = growFloats(col.f2, rows)
		for row := 0; row < rows; row++ {
			x, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			y, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			col.f = append(col.f, x)
			col.f2 = append(col.f2, y)
		}
	case KindRect:
		col.f = growFloats(col.f, rows)
		col.f2 = growFloats(col.f2, rows)
		col.f3 = growFloats(col.f3, rows)
		col.f4 = growFloats(col.f4, rows)
		for row := 0; row < rows; row++ {
			var vs [4]float64
			for i := range vs {
				v, err := d.Float64()
				if err != nil {
					return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
				}
				vs[i] = v
			}
			col.f = append(col.f, vs[0])
			col.f2 = append(col.f2, vs[1])
			col.f3 = append(col.f3, vs[2])
			col.f4 = append(col.f4, vs[3])
		}
	}
	return nil
}

func growInts(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, 0, n)
	}
	return s[:0]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, 0, n)
	}
	return s[:0]
}

// EncodeBatch encodes a record slice as one batch frame: columnar when
// the rows are uniform width (always, for the engine's streams), the
// row-wise fallback otherwise. Encoding reads columns straight out of
// the records in one pass, with no staging copy.
func EncodeBatch(recs []Record) []byte {
	e := wire.NewEncoder(len(recs)*24 + 16)
	EncodeBatchInto(e, recs)
	return e.Bytes()
}

// EncodeBatchInto appends one batch frame for recs to e. See EncodeBatch.
func EncodeBatchInto(e *wire.Encoder, recs []Record) {
	if len(recs) == 0 {
		e.Byte(batchFormatColumnar)
		e.Uvarint(0) // width
		e.Uvarint(0) // rows
		return
	}
	w := len(recs[0])
	if w == 0 {
		// Zero-width rows carry no payload bytes, so a columnar frame
		// could not bound its row count by the remaining input; the
		// row-wise fallback keeps the count bounded by per-record
		// header bytes instead.
		encodeRowWise(e, recs)
		return
	}
	for _, r := range recs[1:] {
		if len(r) != w {
			encodeRowWise(e, recs)
			return
		}
	}
	e.Byte(batchFormatColumnar)
	e.Uvarint(uint64(w))
	// Column tags: the uniform scalar Kind, or the generic tag for
	// reference-kind or kind-mixed columns. The kind scan is a byte
	// compare per value; payloads are emitted straight from the record
	// values below, so the whole encode is one staging-free pass.
	tags := make([]byte, w)
	for c := 0; c < w; c++ {
		k := recs[0][c].kind
		generic := !typedKind(k)
		if !generic {
			for _, r := range recs[1:] {
				if r[c].kind != k {
					generic = true
					break
				}
			}
		}
		if generic {
			tags[c] = batchGenericTag
		} else {
			tags[c] = byte(k)
		}
		e.Byte(tags[c])
	}
	e.Uvarint(uint64(len(recs)))
	for c := 0; c < w; c++ {
		encodeColumn(e, recs, c, tags[c])
	}
}

// encodeColumn emits column c of a uniform-width record slice using the
// representation its already-emitted tag promised.
func encodeColumn(e *wire.Encoder, recs []Record, c int, tag byte) {
	if tag == batchGenericTag {
		for _, r := range recs {
			r[c].MarshalWire(e)
		}
		return
	}
	switch Kind(tag) {
	case KindNull:
		// One pad byte per row keeps every column at >=1 byte/row,
		// which is what lets the decoder bound `rows` with
		// UvarintCount(1) before allocating vectors.
		for range recs {
			e.Byte(0)
		}
	case KindBool, KindInt64:
		for _, r := range recs {
			e.Varint(r[c].i)
		}
	case KindFloat64:
		for _, r := range recs {
			e.Float64(r[c].f)
		}
	case KindString:
		for _, r := range recs {
			e.String(r[c].s)
		}
	case KindUUID, KindInterval:
		for _, r := range recs {
			e.Varint(r[c].i)
			e.Varint(r[c].j)
		}
	case KindPoint:
		for _, r := range recs {
			e.Float64(r[c].f)
			e.Float64(r[c].f2)
		}
	case KindRect:
		for _, r := range recs {
			e.Float64(r[c].f)
			e.Float64(r[c].f2)
			e.Float64(r[c].f3)
			e.Float64(r[c].f4)
		}
	}
}

// encodeRowWise emits the ragged/zero-width fallback frame.
func encodeRowWise(e *wire.Encoder, recs []Record) {
	e.Byte(batchFormatRowWise)
	e.Uvarint(uint64(len(recs)))
	for _, r := range recs {
		r.MarshalWire(e)
	}
}

// DecodeBatch decodes one batch frame and materializes its records. It
// is the one decoder for every record batch that crosses a node, a
// spill run, a checkpoint or the serve wire. Columnar frames land in
// one []Value arena and one []Record header arena — two allocations
// for the whole frame — either directly (small frames) or through
// typed column vectors staged in scratch (large frames, see
// stagedDecodeMinRows). scratch, when non-nil, carries those reusable
// buffers across decodes. Ragged row-wise frames, which a column-major
// Batch cannot represent, decode record by record.
func DecodeBatch(buf []byte, scratch *Batch) ([]Record, error) {
	if scratch == nil {
		scratch = NewBatch(0)
	}
	d := wire.NewDecoder(buf)
	format, err := d.Byte()
	if err != nil {
		return nil, fmt.Errorf("types: batch format: %w", err)
	}
	switch format {
	case batchFormatColumnar:
		return decodeColumnarRecords(d, scratch)
	case batchFormatRowWise:
		return decodeRowWise(d)
	}
	return nil, fmt.Errorf("types: unknown batch format 0x%02x", format)
}

// stagedDecodeMinRows is the frame size at which columnar decode
// switches from filling the row-major record arena directly (best for
// small frames: no staging pass) to staging typed column vectors and
// transposing once (best for large frames: sequential appends, then a
// cache-friendly transpose out of compact vectors).
const stagedDecodeMinRows = 64

// decodeColumnarRecords reads a columnar payload directly into record
// form. Allocation stays bounded by the frame: width and rows both come
// through UvarintCount — rows at a floor of one payload byte per row
// per column — so the rows×width arena never exceeds the bytes actually
// present in a well-formed (or corrupted) frame.
func decodeColumnarRecords(d *wire.Decoder, scratch *Batch) ([]Record, error) {
	width, err := d.UvarintCount(1)
	if err != nil {
		return nil, fmt.Errorf("types: batch width: %w", err)
	}
	tags := scratch.tags
	if cap(tags) < width {
		tags = make([]byte, width)
	}
	tags = tags[:width]
	scratch.tags = tags
	for c := 0; c < width; c++ {
		tag, err := d.Byte()
		if err != nil {
			return nil, fmt.Errorf("types: batch column tag: %w", err)
		}
		if tag != batchGenericTag {
			k := Kind(tag)
			if int(k) >= len(kindNames) || !typedKind(k) {
				return nil, fmt.Errorf("types: invalid batch column tag 0x%02x", tag)
			}
		}
		tags[c] = tag
	}
	rowFloor := width
	if rowFloor < 1 {
		rowFloor = 1
	}
	rows, err := d.UvarintCount(rowFloor)
	if err != nil {
		return nil, fmt.Errorf("types: batch rows: %w", err)
	}
	if width == 0 {
		if rows != 0 {
			return nil, fmt.Errorf("types: batch claims %d rows with no columns", rows)
		}
		return nil, nil
	}
	if rows == 0 {
		return nil, nil
	}
	if rows >= stagedDecodeMinRows {
		// Large frames: decode each column into its compact typed
		// vector (sequential appends), then transpose once via
		// Records(). The staging pass beats filling the row-major
		// arena directly, whose width×80-byte write stride thrashes
		// the cache at batch-sized row counts.
		scratch.Reset(width)
		for c, tag := range tags {
			col := &scratch.cols[c]
			if tag == batchGenericTag {
				col.kind, col.generic = KindNull, true
			} else {
				col.kind, col.generic = Kind(tag), false
			}
		}
		for c := range tags {
			if err := scratch.decodeColumn(d, c, rows); err != nil {
				return nil, err
			}
		}
		scratch.rows = rows
		return scratch.Records(), nil
	}
	arena := make([]Value, rows*width)
	recs := make([]Record, rows)
	for i := range recs {
		recs[i] = arena[i*width : (i+1)*width : (i+1)*width]
	}
	for c, tag := range tags {
		if err := decodeColumnInto(d, arena, c, width, rows, tag); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// decodeColumnInto fills column c of the row-major arena from d.
func decodeColumnInto(d *wire.Decoder, arena []Value, c, width, rows int, tag byte) error {
	if tag == batchGenericTag {
		for row := 0; row < rows; row++ {
			v, err := DecodeValue(d)
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = v
		}
		return nil
	}
	switch k := Kind(tag); k {
	case KindNull:
		for row := 0; row < rows; row++ {
			if _, err := d.Byte(); err != nil {
				return fmt.Errorf("types: batch null column %d: %w", c, err)
			}
			// The arena's zero Value is already Null.
		}
	case KindBool, KindInt64:
		for row := 0; row < rows; row++ {
			v, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: k, i: v}
		}
	case KindFloat64:
		for row := 0; row < rows; row++ {
			v, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: KindFloat64, f: v}
		}
	case KindString:
		for row := 0; row < rows; row++ {
			v, err := d.String()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: KindString, s: v}
		}
	case KindUUID, KindInterval:
		for row := 0; row < rows; row++ {
			i, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			j, err := d.Varint()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: k, i: i, j: j}
		}
	case KindPoint:
		for row := 0; row < rows; row++ {
			x, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			y, err := d.Float64()
			if err != nil {
				return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
			}
			arena[row*width+c] = Value{kind: KindPoint, f: x, f2: y}
		}
	case KindRect:
		for row := 0; row < rows; row++ {
			var vs [4]float64
			for i := range vs {
				v, err := d.Float64()
				if err != nil {
					return fmt.Errorf("types: batch column %d row %d: %w", c, row, err)
				}
				vs[i] = v
			}
			arena[row*width+c] = Value{kind: KindRect, f: vs[0], f2: vs[1], f3: vs[2], f4: vs[3]}
		}
	}
	return nil
}

// decodeRowWise reads a row-wise batch payload (possibly ragged).
func decodeRowWise(d *wire.Decoder) ([]Record, error) {
	n, err := d.UvarintCount(1)
	if err != nil {
		return nil, fmt.Errorf("types: batch row count: %w", err)
	}
	out := make([]Record, n)
	for i := range out {
		if out[i], err = DecodeRecord(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}
