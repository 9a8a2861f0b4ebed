// Package serve is the network serving layer: the wire protocol and
// HTTP daemon that turn one engine.Database into the fudjd service,
// without giving up the robustness guarantees the in-process engine
// makes. Queries arrive over a versioned frame protocol; result
// batches travel as the engine's own batch frames (types.EncodeBatch,
// the codec of shuffle, spill and checkpoint, so network serde cost is
// the same currency the simulated cluster pays) and every
// frame carries a CRC so a corrupted byte on the wire is detected,
// never silently decoded. Errors cross the socket as structured
// envelopes (envelope.go) that round-trip the engine's whole error
// taxonomy, so fudj.IsRetryable gives a client the same answer a
// co-located caller would get.
//
// # Frame layout
//
// A response to POST /v1/query is a stream of frames:
//
//	offset 0    frame type (1 byte)
//	offset 1-4  payload length, uint32 little-endian
//	offset 5-8  CRC32 (IEEE) of the payload, uint32 little-endian
//	offset 9-   payload
//
// Frame types: FrameSchema (JSON column descriptors), FrameBatch (one
// types.EncodeBatch record batch frame), FrameTrailer (JSON
// execution summary: row count, grouped stats, metrics snapshot), and
// FrameError (JSON error envelope). A successful query is
// schema, batch*, trailer; a failed one is zero or more data frames
// followed by an error frame. The protocol version travels in the
// X-Fudj-Proto header on both request and response.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"fudj/internal/engine"
	"fudj/internal/types"
)

// ProtoVersion is the wire protocol generation. A server refuses
// requests from a different generation with a non-retryable envelope,
// so a mixed deployment fails loudly instead of mis-decoding frames.
const ProtoVersion = 2

// Request/response header names.
const (
	// HeaderProto carries ProtoVersion on requests and responses.
	HeaderProto = "X-Fudj-Proto"
	// HeaderSession names the client session; the server creates it on
	// first use and expires it after idleness (session.go).
	HeaderSession = "X-Fudj-Session"
	// HeaderQueryID is the client-chosen idempotency key: a retry that
	// reuses the ID replays the recorded response instead of executing
	// the query a second time.
	HeaderQueryID = "X-Fudj-Query-Id"
	// HeaderDeadlineMs is the client's remaining deadline budget in
	// milliseconds; the server derives the query context from it.
	HeaderDeadlineMs = "X-Fudj-Deadline-Ms"
	// HeaderPriority is the admission priority: "low", "normal", "high".
	HeaderPriority = "X-Fudj-Priority"
	// HeaderTrace, when "1", asks the server to collect and render the
	// execution span tree into the trailer.
	HeaderTrace = "X-Fudj-Trace"
	// HeaderInstance carries the serving instance's stable ID on every
	// response. Replay records and session catalogs are scoped to one
	// instance, so the scope of an idempotency key is self-describing:
	// a client that sees the ID change knows its keys and session DDL
	// mean nothing to the process now answering.
	HeaderInstance = "X-Fudj-Instance"
	// HeaderExpectInstance, when set on a query, names the instance the
	// client believes it is talking to. A mismatch is refused with a
	// retryable instance envelope before any execution or replay-cache
	// lookup, so a failover client can re-key and re-establish its
	// session instead of running against a stranger's replay scope.
	HeaderExpectInstance = "X-Fudj-Expect-Instance"
)

// Frame types.
const (
	// FrameSchema is a JSON schemaJSON payload describing the columns.
	FrameSchema byte = 1
	// FrameBatch is one record batch frame (types.EncodeBatch).
	FrameBatch byte = 2
	// FrameTrailer is the JSON Trailer closing a successful response.
	FrameTrailer byte = 3
	// FrameError is a JSON error Envelope closing a failed response.
	FrameError byte = 4
)

// frameHeaderSize is the fixed prefix of every frame.
const frameHeaderSize = 9

// MaxFramePayload bounds any single frame, so a corrupted length
// prefix produces an error instead of a giant allocation (the same
// discipline wire.UvarintCount enforces for record counts).
const MaxFramePayload = 32 << 20

// batchTargetBytes is the encoded size at which the server seals a
// result batch frame; it bounds both sides' per-frame working memory.
const batchTargetBytes = 256 << 10

// batchMaxRecords caps records per batch frame regardless of size.
const batchMaxRecords = 2048

// schemaJSON is the FrameSchema payload.
type schemaJSON struct {
	Fields []fieldJSON `json:"fields"`
}

type fieldJSON struct {
	Name string     `json:"name"`
	Kind types.Kind `json:"kind"`
}

// Trailer is the FrameTrailer payload: everything a Result carries
// besides schema and rows. Durations travel as int64 nanoseconds (the
// encoding json already uses for time.Duration).
type Trailer struct {
	Rows      int                 `json:"rows"`
	ElapsedNs int64               `json:"elapsed_ns"`
	Plan      string              `json:"plan,omitempty"`
	Join      engine.JoinStats    `json:"join"`
	Cluster   engine.ClusterStats `json:"cluster"`
	Faults    engine.FaultStats   `json:"faults"`
	Memory    engine.MemoryStats  `json:"memory"`
	Sched     engine.SchedStats   `json:"sched"`
	Metrics   map[string]int64    `json:"metrics,omitempty"`
	// Trace holds the rendered span tree when the request asked for
	// tracing; span trees do not cross the wire structurally.
	Trace []string `json:"trace,omitempty"`
	// Replayed marks a response served from the idempotent replay
	// cache rather than a fresh execution.
	Replayed bool `json:"replayed,omitempty"`
}

// CorruptFrameError reports a frame whose payload failed its CRC or
// whose header was malformed — a byte was damaged in transit. It is
// retryable: the response is re-requested, and the idempotent replay
// cache guarantees the retry does not re-execute the query.
type CorruptFrameError struct {
	Type   byte
	Length int
	Reason string
}

// Error implements the error interface.
func (e *CorruptFrameError) Error() string {
	return fmt.Sprintf("serve: corrupt frame (type %d, length %d): %s", e.Type, e.Length, e.Reason)
}

// Retryable marks wire corruption as transient.
func (e *CorruptFrameError) Retryable() bool { return true }

// AppendFrame appends one encoded frame to dst and returns it.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EncodeSchemaFrame encodes the schema of a result.
func EncodeSchemaFrame(s *types.Schema) []byte {
	sj := schemaJSON{Fields: make([]fieldJSON, 0, s.Len())}
	for _, f := range s.Fields {
		sj.Fields = append(sj.Fields, fieldJSON{Name: f.Name, Kind: f.Kind})
	}
	payload, _ := json.Marshal(sj)
	return AppendFrame(nil, FrameSchema, payload)
}

// EncodeBatchFrames splits rows into CRC-protected batch frames.
func EncodeBatchFrames(rows []types.Record) []byte {
	var out []byte
	for len(rows) > 0 {
		n, bytes := 0, int64(0)
		for n < len(rows) && n < batchMaxRecords && bytes < batchTargetBytes {
			bytes += types.RecordsMemSize(rows[n : n+1])
			n++
		}
		out = AppendFrame(out, FrameBatch, types.EncodeBatch(rows[:n]))
		rows = rows[n:]
	}
	return out
}

// EncodeTrailerFrame encodes the closing summary frame.
func EncodeTrailerFrame(t Trailer) []byte {
	payload, _ := json.Marshal(t)
	return AppendFrame(nil, FrameTrailer, payload)
}

// MarkReplayed rewrites a recorded response stream so its trailer
// frame carries Replayed=true (with a fresh length and CRC); every
// other frame passes through byte-identical. A stream with no trailer
// — an error response — or one that fails to parse is returned
// unchanged.
func MarkReplayed(frames []byte) []byte {
	for i := 0; i+frameHeaderSize <= len(frames); {
		typ := frames[i]
		length := int(binary.LittleEndian.Uint32(frames[i+1 : i+5]))
		end := i + frameHeaderSize + length
		if end > len(frames) {
			return frames
		}
		if typ == FrameTrailer {
			var t Trailer
			if err := json.Unmarshal(frames[i+frameHeaderSize:end], &t); err != nil {
				return frames
			}
			t.Replayed = true
			out := make([]byte, 0, len(frames)+32)
			out = append(out, frames[:i]...)
			out = append(out, EncodeTrailerFrame(t)...)
			return append(out, frames[end:]...)
		}
		i = end
	}
	return frames
}

// EncodeErrorFrame encodes a failure as its envelope frame.
func EncodeErrorFrame(env Envelope) []byte {
	payload, _ := json.Marshal(env)
	return AppendFrame(nil, FrameError, payload)
}

// FrameReader decodes a frame stream, verifying each payload's CRC.
type FrameReader struct {
	r io.Reader
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame. io.EOF is returned verbatim at a clean stream
// end; a short header or payload is io.ErrUnexpectedEOF (the
// connection died mid-frame); a CRC mismatch or oversized length is a
// *CorruptFrameError.
func (fr *FrameReader) Next() (typ byte, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF here is a clean end of stream
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	typ = hdr[0]
	length := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if typ < FrameSchema || typ > FrameError {
		return 0, nil, &CorruptFrameError{Type: typ, Length: int(length), Reason: "unknown frame type"}
	}
	if length > MaxFramePayload {
		return 0, nil, &CorruptFrameError{Type: typ, Length: int(length), Reason: "payload length exceeds limit"}
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, &CorruptFrameError{Type: typ, Length: int(length), Reason: "payload CRC mismatch"}
	}
	return typ, payload, nil
}

// DecodeSchemaFrame rebuilds a schema from its frame payload.
func DecodeSchemaFrame(payload []byte) (*types.Schema, error) {
	var sj schemaJSON
	if err := json.Unmarshal(payload, &sj); err != nil {
		return nil, fmt.Errorf("serve: decode schema frame: %w", err)
	}
	fields := make([]types.Field, len(sj.Fields))
	for i, f := range sj.Fields {
		fields[i] = types.Field{Name: f.Name, Kind: f.Kind}
	}
	return types.NewSchema(fields...), nil
}

// DecodeTrailerFrame rebuilds the trailer from its frame payload.
func DecodeTrailerFrame(payload []byte) (Trailer, error) {
	var t Trailer
	if err := json.Unmarshal(payload, &t); err != nil {
		return Trailer{}, fmt.Errorf("serve: decode trailer frame: %w", err)
	}
	return t, nil
}
