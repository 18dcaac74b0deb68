package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the incremental WAL frame reader: the one decoder both
// the whole-stream Scan (recovery) and the live Tailer (replication)
// are built on. Recovery wants "read everything, tell me where the
// valid prefix ends"; a tailer wants "give me the next record if a
// complete frame is available, and never lose my place". Both are
// expressible over the same primitive: a cursor that only ever
// advances past fully validated frames.

// TornError describes why frame decoding stopped before end of input:
// a partial header, a partial payload, an implausible length, a
// checksum mismatch, or an undecodable payload. For an immutable log
// it marks the torn tail a crash left behind; for a live log it
// usually just marks the frame the writer is still flushing, and the
// same offset will decode cleanly once the write completes.
type TornError struct {
	Reason string
}

// Error implements error.
func (e *TornError) Error() string { return "journal: torn frame: " + e.Reason }

// IsTorn reports whether err marks an incomplete or corrupt frame.
func IsTorn(err error) bool {
	var te *TornError
	return errors.As(err, &te)
}

// FrameReader decodes length- and CRC32-framed journal records from an
// io.Reader, one at a time. Offset() is the byte offset just past the
// last fully validated frame — the durable cursor a caller can persist
// and later resume from (see Tailer). A FrameReader never reads ahead
// of the frame it is decoding, and a frame either validates completely
// (Next returns the record, Offset advances) or not at all (Next
// returns io.EOF or a *TornError, Offset stays put).
type FrameReader struct {
	r       io.Reader
	off     int64
	header  [frameHeaderLen]byte
	payload []byte // reused between frames; a Record never points into it
}

// NewFrameReader returns a FrameReader decoding from r. The reader's
// current position is offset zero; callers resuming from a persisted
// cursor seek (or section) the underlying reader first.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Offset returns the byte offset just past the last validated frame.
func (fr *FrameReader) Offset() int64 { return fr.off }

// Next decodes one frame. It returns:
//
//   - (rec, nil) for a valid frame — Offset advances past it;
//   - (nil, io.EOF) at a clean end of input on a frame boundary;
//   - (nil, *TornError) when the remaining bytes do not form a complete
//     valid frame — Offset does NOT advance, so re-reading from Offset
//     after the writer finishes (or truncates) the tail is safe;
//   - (nil, err) for any other I/O error from the underlying reader.
func (fr *FrameReader) Next() (*Record, error) {
	n, err := io.ReadFull(fr.r, fr.header[:])
	if err == io.EOF {
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return nil, &TornError{Reason: fmt.Sprintf("partial frame header (%d of %d bytes)", n, frameHeaderLen)}
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(fr.header[0:4])
	sum := binary.LittleEndian.Uint32(fr.header[4:8])
	if length > maxRecordLen {
		return nil, &TornError{Reason: fmt.Sprintf("implausible record length %d", length)}
	}
	// The buffer grows as bytes arrive (4 KiB, then doubling), never to
	// the length the header claims: a tailer parked on a torn tail reads
	// the same garbage length on every poll.
	payload, want := fr.payload[:0], int(length)
	for len(payload) < want {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(want-len(payload), max(len(payload), 4<<10)))
			fr.payload = payload
		}
		n, err = io.ReadFull(fr.r, payload[len(payload):min(cap(payload), want)])
		payload = payload[:len(payload)+n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, &TornError{Reason: fmt.Sprintf("partial payload (%d of %d bytes)", len(payload), length)}
		}
		if err != nil {
			return nil, fmt.Errorf("journal: read frame payload: %w", err)
		}
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, &TornError{Reason: "checksum mismatch"}
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		// Passing the checksum but failing to decode means a writer bug
		// or version skew, not a torn write; still stop cleanly rather
		// than hand garbage to replay.
		return nil, &TornError{Reason: fmt.Sprintf("undecodable record: %v", err)}
	}
	fr.off += int64(frameHeaderLen) + int64(length)
	return rec, nil
}
