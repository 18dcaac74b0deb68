package journal

import (
	"bytes"
	"io"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the WAL scanner. Scan's contract:
// it must never panic, never return an I/O error for in-memory input,
// never replay bytes beyond ValidLen, and for any prefix of valid
// frames it must return exactly those records with Torn describing the
// rest. Replay of whatever Scan accepts must also not panic — recovery
// runs on whatever the disk serves.
func FuzzScan(f *testing.F) {
	// Seed corpus: an empty log, a well-formed log, and mutations of it
	// covering every torn-tail class Scan distinguishes.
	f.Add([]byte{})
	log := func(frame func(testing.TB, *Record) []byte) []byte {
		var buf bytes.Buffer
		for _, rec := range []*Record{
			{Kind: KindInstanceCreated, Instance: 1, Process: "P", Data: map[string]string{"k": "v"}},
			{Kind: KindActivityStart, Instance: 1, Activity: "A", Occurrence: 1, EffectKind: EffectInvoke},
			{Kind: KindActivityComplete, Instance: 1, Activity: "A", Occurrence: 1, EffectKind: EffectInvoke, Data: map[string]string{"out": "x"}},
			{Kind: KindTxnBegin, Instance: 1, Activity: "t"},
			{Kind: KindTxnCommit, Instance: 1, Activity: "t"},
			{Kind: KindInstanceComplete, Instance: 1},
		} {
			buf.Write(frame(f, rec))
		}
		return buf.Bytes()
	}
	valid := log(binaryFrame)
	f.Add(valid)
	f.Add(log(legacyFrame))
	f.Add(append(log(legacyFrame), valid...)) // a journal upgraded in place
	f.Add(valid[:len(valid)-3])               // partial payload
	f.Add(valid[:5])                          // partial header
	f.Add(append(valid, 0xFF, 0xFF))          // trailing garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40 // flip a bit mid-log
	f.Add(corrupt)
	huge := append([]byte(nil), valid...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // implausible length header
	f.Add(huge)
	// Checkpoints with the completed count, as an id list, and corrupt.
	for _, cp := range []string{
		`{"k":"checkpoint","s":{"completed":3}}`,
		`{"k":"checkpoint","s":{"completed":[4,5]}}`,
		`{"k":"checkpoint","s":{"completed":-1}}`,
	} {
		f.Add(frameOf([]byte(cp)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Scan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Scan returned an error for in-memory input: %v", err)
		}
		if res.ValidLen < 0 || res.ValidLen > int64(len(data)) {
			t.Fatalf("ValidLen %d out of range [0,%d]", res.ValidLen, len(data))
		}
		if res.Torn && res.TornReason == "" {
			t.Fatal("torn result without a reason")
		}
		if !res.Torn && res.ValidLen != int64(len(data)) {
			t.Fatalf("clean scan stopped early: ValidLen %d of %d", res.ValidLen, len(data))
		}

		// Re-scanning exactly the valid prefix must reproduce the same
		// records with no torn tail (scan is deterministic and
		// prefix-closed).
		res2, err := Scan(bytes.NewReader(data[:res.ValidLen]))
		if err != nil {
			t.Fatalf("rescan: %v", err)
		}
		if res2.Torn {
			t.Fatalf("valid prefix re-scanned as torn: %s", res2.TornReason)
		}
		if len(res2.Records) != len(res.Records) {
			t.Fatalf("rescan records = %d, want %d", len(res2.Records), len(res.Records))
		}

		// The incremental FrameReader underlies Scan; driving it over
		// the same input must yield exactly the same records, stop at
		// exactly the same offset, and never panic. Its per-frame
		// contract: every non-nil record advances Offset, io.EOF means a
		// clean frame boundary, a TornError leaves Offset at the last
		// valid boundary, and nothing else is ever returned for
		// in-memory input.
		fr := NewFrameReader(bytes.NewReader(data))
		var frRecords int
		var lastOff int64
		for {
			rec, err := fr.Next()
			if rec != nil {
				if fr.Offset() <= lastOff {
					t.Fatalf("FrameReader offset did not advance: %d -> %d", lastOff, fr.Offset())
				}
				lastOff = fr.Offset()
				frRecords++
				continue
			}
			if err == io.EOF {
				if res.Torn {
					t.Fatal("FrameReader saw clean EOF where Scan saw a torn tail")
				}
				break
			}
			if IsTorn(err) {
				if !res.Torn {
					t.Fatalf("FrameReader saw torn frame where Scan saw clean end: %v", err)
				}
				if fr.Offset() != lastOff {
					t.Fatalf("torn frame advanced offset: %d -> %d", lastOff, fr.Offset())
				}
				break
			}
			t.Fatalf("FrameReader returned an I/O error for in-memory input: %v", err)
		}
		if frRecords != len(res.Records) {
			t.Fatalf("FrameReader decoded %d records, Scan %d", frRecords, len(res.Records))
		}
		if fr.Offset() != res.ValidLen {
			t.Fatalf("FrameReader final offset %d != Scan ValidLen %d", fr.Offset(), res.ValidLen)
		}

		// Whatever was accepted must replay without panicking.
		state := Replay(res.Records)
		_ = state.InFlight()
		_ = state.Clone()
	})
}
