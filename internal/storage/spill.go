// Spill runs: temporary on-disk record streams backing the engine's
// memory-bounded COMBINE. A run is a sequence of length-prefixed
// frames, each holding one encoded record batch, so a reader can
// stream a run back frame by frame with memory bounded by the frame
// size rather than the run size — the property hybrid-hash processing
// depends on when a spilled bucket is larger than the memory budget.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"fudj/internal/types"
	"fudj/internal/wire"
)

// spillFrameTarget is the encoded size at which a RunWriter seals the
// current frame. Frames bound the reader's working memory, so the
// target is deliberately small relative to realistic budgets.
const spillFrameTarget = 64 << 10

// RunWriter appends records to one spill run on disk. It buffers
// records into frames of roughly spillFrameTarget encoded bytes; Close
// flushes the final frame.
type RunWriter struct {
	f       *os.File
	w       *bufio.Writer
	pending []types.Record
	bytes   int64 // encoded bytes written (including frame headers)
	records int64
	closed  bool
}

// NewRunWriter creates a fresh run file in dir (which must exist).
func NewRunWriter(dir string) (*RunWriter, error) {
	f, err := os.CreateTemp(dir, "spill-*.run")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill run: %w", err)
	}
	return &RunWriter{f: f, w: bufio.NewWriter(f)}, nil
}

// Path returns the run file's path.
func (rw *RunWriter) Path() string { return rw.f.Name() }

// Bytes returns the encoded bytes written so far (sealed frames only).
func (rw *RunWriter) Bytes() int64 { return rw.bytes }

// Records returns the number of records appended so far.
func (rw *RunWriter) Records() int64 { return rw.records }

// Append adds records to the run, sealing a frame when the pending
// batch reaches the frame target.
func (rw *RunWriter) Append(recs ...types.Record) error {
	if rw.closed {
		return fmt.Errorf("storage: append to closed spill run %s", rw.Path())
	}
	rw.pending = append(rw.pending, recs...)
	rw.records += int64(len(recs))
	if len(rw.pending) > 0 && types.RecordsMemSize(rw.pending) >= spillFrameTarget {
		return rw.flushFrame()
	}
	return nil
}

// flushFrame encodes and writes the pending batch as one columnar
// frame.
func (rw *RunWriter) flushFrame() error {
	if len(rw.pending) == 0 {
		return nil
	}
	payload := types.EncodeBatch(rw.pending)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := rw.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("storage: write spill frame: %w", err)
	}
	if _, err := rw.w.Write(payload); err != nil {
		return fmt.Errorf("storage: write spill frame: %w", err)
	}
	rw.bytes += int64(n) + int64(len(payload))
	rw.pending = rw.pending[:0]
	return nil
}

// Close flushes the final frame and closes the file. The run remains
// on disk for reading; Remove deletes it.
func (rw *RunWriter) Close() error {
	if rw.closed {
		return nil
	}
	rw.closed = true
	if err := rw.flushFrame(); err != nil {
		return err
	}
	if err := rw.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush spill run: %w", err)
	}
	return rw.f.Close()
}

// Remove closes the writer (if needed) and deletes the run file.
func (rw *RunWriter) Remove() error {
	if !rw.closed {
		rw.closed = true
		rw.f.Close()
	}
	return os.Remove(rw.Path())
}

// RunReader streams a spill run back frame by frame.
type RunReader struct {
	f       *os.File
	r       *bufio.Reader
	scratch *types.Batch // column staging reused across frames
	size    int64        // total file size, bounds any frame's claimed length
}

// OpenRun opens a run file written by RunWriter for streaming.
func OpenRun(path string) (*RunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open spill run: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat spill run: %w", err)
	}
	return &RunReader{f: f, r: bufio.NewReader(f), scratch: types.NewBatch(0), size: fi.Size()}, nil
}

// Next returns the next frame's records, or io.EOF after the last
// frame. Memory use is bounded by the largest single frame.
func (rr *RunReader) Next() ([]types.Record, error) {
	// A frame cannot be larger than the file that holds it, so a
	// corrupted header errors before allocating for the payload.
	size, err := wire.ReadUvarintCount(rr.r, rr.size, 1)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("storage: spill frame header: %w", err)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return nil, fmt.Errorf("storage: spill frame payload: %w", err)
	}
	recs, err := types.DecodeBatch(payload, rr.scratch)
	if err != nil {
		return nil, fmt.Errorf("storage: spill frame decode: %w", err)
	}
	return recs, nil
}

// Close closes the underlying file.
func (rr *RunReader) Close() error { return rr.f.Close() }
