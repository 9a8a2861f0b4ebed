// Crash-consistent checkpoints: durable snapshots of mid-query state
// (the broadcast partitioning plan, each partition's post-shuffle
// bucket inputs) written at phase barriers so a failure replays only
// the work downstream of the last barrier instead of the whole query.
//
// The on-disk format extends the spill run format with integrity
// checks a transient spill never needs, because a checkpoint is read
// back *after* a simulated failure and must detect its own damage:
//
//	magic "FCKP1\n"
//	frame*     uvarint(len) | crc32(payload) LE | payload   (len >= 1)
//	terminator uvarint(0)   | frames uint64 LE  | crc32(frames) LE
//
// A frame payload is either one encoded record batch
// (types.EncodeBatch, columnar where the records allow it) or an
// opaque blob; the caller knows which it stored. The explicit terminator makes truncation detectable — a
// reader that hits EOF before a valid terminator reports corruption
// rather than silently returning a prefix — and the per-frame CRC
// catches bit rot and torn page writes inside a frame.
//
// Crash consistency on the write side: a checkpoint is built in a
// temp file and published with os.Rename after an fsync, so a
// checkpoint either exists completely or not at all; a crash mid-write
// leaves only a temp file the store's Sweep removes.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"fudj/internal/types"
	"fudj/internal/wire"
)

// checkpointMagic heads every checkpoint file.
const checkpointMagic = "FCKP1\n"

// checkpointExt marks published (complete, renamed) checkpoint files.
const checkpointExt = ".ckpt"

// CorruptError reports a checkpoint that failed an integrity check on
// reopen: truncated (no terminator), bit-flipped (CRC mismatch), or
// structurally invalid. It is how the recovery manager distinguishes
// "heal by recompute" from genuine I/O failure.
type CorruptError struct {
	Path   string
	Reason string
}

// Error implements the error interface.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// CheckpointStore owns one query's checkpoint directory. Keys are flat
// names (e.g. "s0-shuffle-left-p3"); a key maps to one file. The zero
// value is unusable — build stores with NewCheckpointStore.
type CheckpointStore struct {
	dir string
}

// NewCheckpointStore creates a fresh checkpoint directory for one
// query execution. Sweep removes it and everything inside.
func NewCheckpointStore() (*CheckpointStore, error) {
	dir, err := os.MkdirTemp("", "fudj-ckpt-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// Path returns the published path for a checkpoint key.
func (s *CheckpointStore) Path(key string) string {
	return filepath.Join(s.dir, key+checkpointExt)
}

// Sweep removes the checkpoint directory and everything in it —
// published checkpoints and any temp files a failure left behind.
func (s *CheckpointStore) Sweep() error {
	if s == nil || s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// Remove deletes one published checkpoint (a corrupt one being healed,
// or one superseded by a rerun).
func (s *CheckpointStore) Remove(key string) error {
	err := os.Remove(s.Path(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// SaveRecords checkpoints a record batch under key, returning the
// bytes written. The previous checkpoint under the same key, if any,
// is atomically replaced.
func (s *CheckpointStore) SaveRecords(key string, recs []types.Record) (int64, error) {
	w, err := s.NewCheckpointWriter(key)
	if err != nil {
		return 0, err
	}
	if err := w.Append(recs...); err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return 0, err
	}
	return w.Bytes(), nil
}

// SaveBlob checkpoints one opaque blob (e.g. an encoded PPlan) under
// key, returning the bytes written.
func (s *CheckpointStore) SaveBlob(key string, blob []byte) (int64, error) {
	w, err := s.NewCheckpointWriter(key)
	if err != nil {
		return 0, err
	}
	if err := w.AppendBlob(blob); err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.Close(); err != nil {
		w.Abort()
		return 0, err
	}
	return w.Bytes(), nil
}

// LoadRecords reads back a record checkpoint. It returns
// os.ErrNotExist when no checkpoint was published under key and a
// *CorruptError when the file fails an integrity check.
func (s *CheckpointStore) LoadRecords(key string) ([]types.Record, error) {
	r, err := OpenCheckpoint(s.Path(key))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []types.Record
	for {
		recs, err := r.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, err
		}
		out = append(out, recs...)
	}
}

// LoadBlob reads back a single-frame blob checkpoint.
func (s *CheckpointStore) LoadBlob(key string) ([]byte, error) {
	r, err := OpenCheckpoint(s.Path(key))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	blob, err := r.NextBlob()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, &CorruptError{Path: s.Path(key), Reason: "blob checkpoint holds no frame"}
		}
		return nil, err
	}
	return blob, nil
}

// CheckpointWriter builds one checkpoint in a temp file; Close
// publishes it atomically under its key, Abort discards it. Exactly
// one of the two must be called on every path (the spillclose analyzer
// enforces this, as it does for spill RunWriters).
type CheckpointWriter struct {
	f       *os.File
	w       *bufio.Writer
	dst     string // published path, set at Close
	pending []types.Record
	bytes   int64
	frames  uint64
	done    bool
}

// NewCheckpointWriter starts a checkpoint for key. The temp file lives
// in the store's directory so the final rename never crosses
// filesystems.
func (s *CheckpointStore) NewCheckpointWriter(key string) (*CheckpointWriter, error) {
	f, err := os.CreateTemp(s.dir, key+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create checkpoint temp: %w", err)
	}
	w := &CheckpointWriter{f: f, w: bufio.NewWriter(f), dst: s.Path(key)}
	if _, err := w.w.WriteString(checkpointMagic); err != nil {
		w.Abort()
		return nil, fmt.Errorf("storage: write checkpoint magic: %w", err)
	}
	w.bytes += int64(len(checkpointMagic))
	return w, nil
}

// Append adds records to the checkpoint, sealing a frame when the
// pending batch reaches the spill frame target.
func (cw *CheckpointWriter) Append(recs ...types.Record) error {
	if cw.done {
		return fmt.Errorf("storage: append to finished checkpoint %s", cw.dst)
	}
	cw.pending = append(cw.pending, recs...)
	if len(cw.pending) > 0 && types.RecordsMemSize(cw.pending) >= spillFrameTarget {
		return cw.flushFrame()
	}
	return nil
}

// AppendBlob writes one opaque payload as its own frame. Empty blobs
// are rejected: a zero frame length is the terminator.
func (cw *CheckpointWriter) AppendBlob(blob []byte) error {
	if cw.done {
		return fmt.Errorf("storage: append to finished checkpoint %s", cw.dst)
	}
	if len(blob) == 0 {
		return fmt.Errorf("storage: checkpoint blob frame must be non-empty")
	}
	return cw.writeFrame(blob)
}

// flushFrame encodes and writes the pending record batch as one frame.
func (cw *CheckpointWriter) flushFrame() error {
	if len(cw.pending) == 0 {
		return nil
	}
	payload := types.EncodeBatch(cw.pending)
	cw.pending = cw.pending[:0]
	return cw.writeFrame(payload)
}

// writeFrame emits uvarint(len) | crc32 | payload.
func (cw *CheckpointWriter) writeFrame(payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	n += 4
	if _, err := cw.w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("storage: write checkpoint frame: %w", err)
	}
	if _, err := cw.w.Write(payload); err != nil {
		return fmt.Errorf("storage: write checkpoint frame: %w", err)
	}
	cw.bytes += int64(n) + int64(len(payload))
	cw.frames++
	return nil
}

// Bytes returns the bytes written so far (sealed frames plus header).
func (cw *CheckpointWriter) Bytes() int64 { return cw.bytes }

// Close seals the final frame, writes the terminator, syncs, and
// atomically publishes the checkpoint under its key.
func (cw *CheckpointWriter) Close() error {
	if cw.done {
		return nil
	}
	if err := cw.flushFrame(); err != nil {
		return err
	}
	cw.done = true
	var term [1 + 8 + 4]byte
	term[0] = 0 // uvarint(0)
	binary.LittleEndian.PutUint64(term[1:], cw.frames)
	binary.LittleEndian.PutUint32(term[9:], crc32.ChecksumIEEE(term[1:9]))
	if _, err := cw.w.Write(term[:]); err != nil {
		return fmt.Errorf("storage: write checkpoint terminator: %w", err)
	}
	cw.bytes += int64(len(term))
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush checkpoint: %w", err)
	}
	if err := cw.f.Sync(); err != nil {
		cw.f.Close()
		return fmt.Errorf("storage: sync checkpoint: %w", err)
	}
	if err := cw.f.Close(); err != nil {
		return fmt.Errorf("storage: close checkpoint: %w", err)
	}
	if err := os.Rename(cw.f.Name(), cw.dst); err != nil {
		return fmt.Errorf("storage: publish checkpoint: %w", err)
	}
	return nil
}

// Abort discards an unfinished checkpoint, removing its temp file. A
// published (Closed) checkpoint is left alone.
func (cw *CheckpointWriter) Abort() {
	if cw.done {
		return
	}
	cw.done = true
	cw.f.Close()
	os.Remove(cw.f.Name())
}

// CheckpointReader streams a published checkpoint back frame by frame,
// verifying integrity as it goes. Next/NextBlob return io.EOF only
// after a valid terminator; any earlier end of file, bad magic, or
// checksum mismatch is a *CorruptError.
type CheckpointReader struct {
	f       *os.File
	r       *bufio.Reader
	path    string
	scratch *types.Batch // column staging reused across frames
	size    int64        // total file size, bounds any frame's claimed length
	frames  uint64
	ended   bool // valid terminator seen
}

// OpenCheckpoint opens a published checkpoint for reading, verifying
// the magic header.
func OpenCheckpoint(path string) (*CheckpointReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat checkpoint: %w", err)
	}
	cr := &CheckpointReader{f: f, r: bufio.NewReader(f), path: path, scratch: types.NewBatch(0), size: fi.Size()}
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(cr.r, magic); err != nil || string(magic) != checkpointMagic {
		f.Close()
		return nil, &CorruptError{Path: path, Reason: "bad magic header"}
	}
	return cr, nil
}

// nextPayload reads one frame payload, or io.EOF after a valid
// terminator.
func (cr *CheckpointReader) nextPayload() ([]byte, error) {
	if cr.ended {
		return nil, io.EOF
	}
	// A frame cannot be larger than the file holding it, so a damaged
	// header errors before allocating for the payload.
	size, err := wire.ReadUvarintCount(cr.r, cr.size, 1)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, &CorruptError{Path: cr.path, Reason: "truncated before terminator"}
		}
		return nil, &CorruptError{Path: cr.path, Reason: fmt.Sprintf("frame header: %v", err)}
	}
	if size == 0 {
		// Terminator: verify the frame count and its checksum.
		var tail [12]byte
		if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
			return nil, &CorruptError{Path: cr.path, Reason: "truncated terminator"}
		}
		want := binary.LittleEndian.Uint32(tail[8:])
		if crc32.ChecksumIEEE(tail[:8]) != want {
			return nil, &CorruptError{Path: cr.path, Reason: "terminator checksum mismatch"}
		}
		if n := binary.LittleEndian.Uint64(tail[:8]); n != cr.frames {
			return nil, &CorruptError{Path: cr.path, Reason: fmt.Sprintf("terminator claims %d frames, read %d", n, cr.frames)}
		}
		cr.ended = true
		return nil, io.EOF
	}
	var crc [4]byte
	if _, err := io.ReadFull(cr.r, crc[:]); err != nil {
		return nil, &CorruptError{Path: cr.path, Reason: "truncated frame checksum"}
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(cr.r, payload); err != nil {
		return nil, &CorruptError{Path: cr.path, Reason: "truncated frame payload"}
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, &CorruptError{Path: cr.path, Reason: "frame checksum mismatch"}
	}
	cr.frames++
	return payload, nil
}

// Next returns the next frame decoded as a record batch.
func (cr *CheckpointReader) Next() ([]types.Record, error) {
	payload, err := cr.nextPayload()
	if err != nil {
		return nil, err
	}
	recs, err := types.DecodeBatch(payload, cr.scratch)
	if err != nil {
		// The checksum passed, so this is a frame that never held
		// records (e.g. a blob checkpoint read as records).
		return nil, &CorruptError{Path: cr.path, Reason: fmt.Sprintf("frame decode: %v", err)}
	}
	return recs, nil
}

// NextBlob returns the next frame's raw payload.
func (cr *CheckpointReader) NextBlob() ([]byte, error) {
	return cr.nextPayload()
}

// Close closes the underlying file.
func (cr *CheckpointReader) Close() error { return cr.f.Close() }
