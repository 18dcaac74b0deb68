package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// frameOf frames a payload as the WAL does.
func frameOf(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// legacyFrame is the encoder every record went through before the binary
// encoding: the JSON payload in the same frame. It is the oracle the
// binary codec is compared against and what "a journal written by an
// older build" means in these tests.
func legacyFrame(t testing.TB, r *Record) []byte {
	t.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("legacy marshal: %v", err)
	}
	return frameOf(payload)
}

// binaryFrame is the live encoder's frame, copied out of its buffer.
func binaryFrame(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := new(frameEncoder).frame(r)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	if r.Checkpoint == nil && b[frameHeaderLen] != binaryRecord {
		t.Fatalf("record without a checkpoint framed as %q", b[frameHeaderLen:])
	}
	return append([]byte(nil), b...)
}

// decodeFrame reads exactly one frame.
func decodeFrame(t testing.TB, frame []byte) *Record {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(frame))
	rec, err := fr.Next()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF || fr.Offset() != int64(len(frame)) {
		t.Fatalf("frame of %d bytes: reader stopped at %d with %v", len(frame), fr.Offset(), err)
	}
	return rec
}

// randomRecord draws a non-checkpoint record covering what the encodings
// must agree on: every kind and unknown ones, extreme ids, empty, NUL and
// multi-byte strings (valid UTF-8: JSON rewrites anything else), nil,
// empty and 1–40-entry data, zero and nanosecond times.
func randomRecord(rng *rand.Rand) *Record {
	strs := []string{"", "a", "invoke", "SQL2", "\x00", "a\x00b", "héllo", "日本語", "<RowSet a=\"1\">&</RowSet>",
		"line\nbreak\ttab", "\u2028", "😀", strings.Repeat("x", 300)}
	str := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("s%d", rng.Int63())
		}
		return strs[rng.Intn(len(strs))]
	}
	ints := []int64{0, 1, -1, 42, 127, 128, -129, math.MaxInt32, math.MinInt64, math.MaxInt64}
	num := func() int64 { return ints[rng.Intn(len(ints))] }
	kinds := append([]Kind{"variable-write", "x", "\x01"}, kindCodes[:]...) // kindCodes[0] is ""
	r := &Record{
		Kind:       kinds[rng.Intn(len(kinds))],
		Instance:   num(),
		Process:    str(),
		Activity:   str(),
		Occurrence: int(num()),
		EffectKind: []string{"", EffectSQL, EffectInvoke, "step", "long-running"}[rng.Intn(5)],
		Epoch:      num(),
	}
	switch rng.Intn(4) {
	case 0: // zero
	case 1:
		r.Time = time.Unix(rng.Int63n(4e9), 0).UTC()
	default:
		r.Time = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).UTC()
	}
	switch n := rng.Intn(6); n {
	case 0: // nil
	case 1:
		r.Data = map[string]string{}
	default:
		r.Data = map[string]string{}
		for i := rng.Intn(40) + 1; i > 0; i-- {
			r.Data[str()] = str()
		}
	}
	return r
}

// TestBinaryCodecMatchesJSON: whatever the JSON encoding of a record
// reads back as, the binary encoding reads back as too, and the binary
// bytes do not depend on map order.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	kinds := map[Kind]bool{}
	for i := 0; i < 3000; i++ {
		r := randomRecord(rng)
		kinds[r.Kind] = true
		bin, legacy := binaryFrame(t, r), legacyFrame(t, r)
		got, want := decodeFrame(t, bin), decodeFrame(t, legacy)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d %+v:\n binary reads %+v\n   JSON reads %+v", i, r, got, want)
		}
		for n := 0; n < 20; n++ {
			if again := binaryFrame(t, r); !bytes.Equal(again, bin) {
				t.Fatalf("record %d %+v encodes to different bytes:\n%x\n%x", i, r, bin, again)
			}
		}
		if len(bin) > len(legacy) {
			t.Fatalf("record %d %+v: %d binary bytes, %d JSON", i, r, len(bin), len(legacy))
		}
	}
	if len(kinds) != len(kindCodes)+3 {
		t.Fatalf("drew %d kinds, want every known one and three unknown", len(kinds))
	}
}

// TestBinaryCodecKeepsBytes: strings are bytes to the binary encoding —
// what JSON would rewrite to U+FFFD comes back as written.
func TestBinaryCodecKeepsBytes(t *testing.T) {
	r := &Record{Kind: "\xff", Instance: 1, Process: "\xc3", Activity: "a\x80b", EffectKind: "\xfe\xff",
		Data: map[string]string{"\xed\xa0\x80": "\xff\x00\xff", "k": "\xc0\xaf"}, Time: time.Unix(1, 1).UTC()}
	if got := decodeFrame(t, binaryFrame(t, r)); !reflect.DeepEqual(got, r) {
		t.Fatalf("read back %+v, wrote %+v", got, r)
	}
	if got := decodeFrame(t, legacyFrame(t, r)); reflect.DeepEqual(got, r) {
		t.Fatal("JSON kept invalid UTF-8: the valid-UTF-8 restriction of the oracle arm is no longer needed")
	}
}

// TestCheckpointStaysJSON: a record with a checkpoint is framed as the
// JSON it always was.
func TestCheckpointStaysJSON(t *testing.T) {
	st := NewState()
	st.Apply(&Record{Kind: KindInstanceCreated, Instance: 3, Process: "P"})
	r := &Record{Kind: KindCheckpoint, Checkpoint: st, Occurrence: 2, Epoch: 5, Time: time.Unix(9, 9).UTC()}
	if got, want := binaryFrame(t, r), legacyFrame(t, r); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint framed as\n%q\nwant\n%q", got, want)
	}
}

// TestMalformedBinaryPayloadIsTorn: a binary payload behind a good CRC
// that is not exactly one tuple stops the reader like any torn frame.
func TestMalformedBinaryPayloadIsTorn(t *testing.T) {
	good := binaryFrame(t, &Record{Kind: KindActivityComplete, Instance: 7, Activity: "A", Occurrence: 1,
		EffectKind: EffectSQL, Data: map[string]string{"k": "v"}, Time: time.Unix(5, 5).UTC()})[frameHeaderLen:]
	head := []byte{binaryRecord, 1, 0, 0, 0, 0, 0, 0, 0, 0} // deploy, all fields zero, up to the pair count
	cases := map[string][]byte{
		"only the format byte": {binaryRecord},
		"kind code unknown":    append([]byte{binaryRecord, 99}, good[2:]...),
		"trailing byte":        append(append([]byte(nil), good...), 0),
		"truncated varint":     {binaryRecord, 1, 0x80},
		"overlong varint":      append([]byte{binaryRecord, 1}, bytes.Repeat([]byte{0xff}, 11)...),
		"string past the end":  {binaryRecord, 0, 200, 'x'},
		"nanoseconds ≥ 1e9":    {binaryRecord, 1, 0, 0, 0, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0, 0, 0, 0},
		"pair count 2^40":      append(append([]byte(nil), head...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20),
		"pair count, no pairs": append(append([]byte(nil), head...), 3, 0, 0),
		"last value cut":       good[:len(good)-1],
	}
	for n := 1; n < len(good); n++ {
		cases[fmt.Sprintf("prefix of %d bytes", n)] = good[:n]
	}
	for name, payload := range cases {
		frame := append(legacyFrame(t, &Record{Kind: KindDeploy}), frameOf(payload)...)
		res, err := Scan(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Records) != 1 || !res.Torn || !strings.Contains(res.TornReason, "undecodable record") {
			t.Errorf("%s: %d records, torn=%v %q; want the one good record and an undecodable tail",
				name, len(res.Records), res.Torn, res.TornReason)
		}
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReaderAllocatesWhatIsPresent: a header that claims 64 MiB in front
// of ten bytes costs a read buffer, not 64 MiB — per poll, for a tailer
// parked there.
func TestReaderAllocatesWhatIsPresent(t *testing.T) {
	var torn [frameHeaderLen + 10]byte
	binary.LittleEndian.PutUint32(torn[0:4], maxRecordLen)
	fr := NewFrameReader(nil)
	got := allocated(func() {
		for i := 0; i < 10; i++ {
			fr.r = bytes.NewReader(torn[:])
			if _, err := fr.Next(); !IsTorn(err) {
				t.Fatalf("want a torn frame, got %v", err)
			}
		}
	})
	if got > 32<<10 {
		t.Fatalf("ten reads of a 10-byte tail behind a 64 MiB length allocated %d bytes", got)
	}
}

// canonical is what any encoding of r reads back as: no empty data map,
// the time in UTC.
func canonical(r *Record) *Record {
	c := *r
	if len(c.Data) == 0 {
		c.Data = nil
	}
	c.Time = c.Time.UTC()
	return &c
}

// FuzzRecordCodec puts arbitrary bytes behind a valid frame header: the
// reader must not panic, must not allocate out of proportion to the
// payload, and a record it does decode must survive the live encoder —
// re-encode, decode, equal.
func FuzzRecordCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		r := randomRecord(rng)
		f.Add(binaryFrame(f, r)[frameHeaderLen:])
		f.Add(legacyFrame(f, r)[frameHeaderLen:])
	}
	f.Add([]byte{binaryRecord})
	f.Add([]byte{binaryRecord, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte(`{"k":"checkpoint","s":{"completed":3,"instances":{"1":{"id":1,"process":"P"}}}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec *Record
		var err error
		got := allocated(func() { rec, err = NewFrameReader(bytes.NewReader(frameOf(payload))).Next() })
		// encoding/json's own appetite sets the JSON multiple; a binary
		// payload buys a map slot per two bytes at most.
		limit := uint64(8<<10 + 64*len(payload))
		if len(payload) > 0 && payload[0] != binaryRecord {
			limit = uint64(16<<10 + 512*len(payload))
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
		}
		if err != nil {
			if !IsTorn(err) {
				t.Fatalf("a bad payload is a torn frame, got %v", err)
			}
			return
		}
		if rec.Checkpoint != nil {
			return // JSON in, JSON out: encoding/json's round trip, not ours
		}
		if again := decodeFrame(t, binaryFrame(t, rec)); !reflect.DeepEqual(again, canonical(rec)) {
			t.Fatalf("decoded %+v, re-encoded and read %+v", rec, again)
		}
	})
}

// discardWAL is a walFile that keeps nothing.
type discardWAL struct{}

func (discardWAL) Write(p []byte) (int, error) { return len(p), nil }
func (discardWAL) Sync() error                 { return nil }
func (discardWAL) Close() error                { return nil }

// TestAppendAllocates pins what an append costs in objects with
// observability detached: nothing. The frame is built in the recorder's
// buffer, the fold keeps the memo map it is handed (its per-activity memo
// slice doubles, which over a thousand appends rounds to none per
// append), and a record that folds to nothing touches no heap at all.
func TestAppendAllocates(t *testing.T) {
	r := &Recorder{f: discardWAL{}, state: NewState(), sync: SyncPolicy{Mode: SyncNever}}
	must(t, r.InstanceCreated(1, "P", "", nil))
	memo := &Record{Kind: KindActivityComplete, Instance: 1, Activity: "invoke", Occurrence: 1, EffectKind: EffectInvoke,
		Data: map[string]string{"out:OrderConfirmation": "C-1", "out:Status": "ok", "out:Code": "200"}}
	deploy := &Record{Kind: KindDeploy, Process: "Figure4"}
	for name, rec := range map[string]*Record{"memo": memo, "deploy": deploy} {
		if got := testing.AllocsPerRun(1000, func() {
			rec.Time = time.Time{}
			if err := r.Append(rec); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: %.0f objects per append, want 0", name, got)
		}
	}
}

// failingWAL is a fakeWAL whose failAt-th write (1-based) stores half its
// bytes and fails, as a disk that fills up mid-frame does.
type failingWAL struct {
	fakeWAL
	writes, failAt int
}

func (f *failingWAL) Write(p []byte) (int, error) {
	if f.writes++; f.writes == f.failAt {
		n, _ := f.buf.Write(p[:len(p)/2])
		return n, errors.New("no space left on device")
	}
	return f.buf.Write(p)
}

// TestWriteErrorLatches: after a failed write the WAL may end in a
// partial frame, and recovery stops there — so nothing may be
// acknowledged behind it. Everything Append acknowledged is recovered.
func TestWriteErrorLatches(t *testing.T) {
	f := &failingWAL{failAt: 3}
	r := newFakeRecorder(&f.fakeWAL)
	r.f = f
	acknowledged := 0
	must(t, r.InstanceCreated(1, "P", "", nil))
	acknowledged++
	var first error
	for occ := 1; occ <= 5; occ++ {
		err := r.ActivityComplete(1, "A", occ, EffectInvoke, map[string]string{"out": fmt.Sprint(occ)})
		switch {
		case err == nil:
			acknowledged++
		case first == nil:
			first = err
		case err != first:
			t.Fatalf("append %d: %v, want the latched %v", occ, err, first)
		}
	}
	if !errors.Is(first, ErrWriteFailed) || !IsCrash(first) || acknowledged != 2 {
		t.Fatalf("acknowledged %d appends with error %v, want 2 and a write failure the host dies of", acknowledged, first)
	}
	if err := r.Checkpoint(); err != first {
		t.Fatalf("checkpoint after a failed write: %v, want %v", err, first)
	}
	if err := r.Sync(); err != first {
		t.Fatalf("sync after a failed write: %v, want %v", err, first)
	}
	if got := len(r.State().Instances[1].Memos["A"]); got != 1 {
		t.Fatalf("state holds %d memos, want the 1 acknowledged", got)
	}
	if err := r.Close(); err != nil || !f.closed {
		t.Fatalf("close: %v, closed=%v", err, f.closed)
	}

	res, err := Scan(bytes.NewReader(f.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != acknowledged || !res.Torn {
		t.Fatalf("recovered %d records (torn=%v %q), acknowledged %d", len(res.Records), res.Torn, res.TornReason, acknowledged)
	}
	if int64(f.buf.Len()) <= res.ValidLen {
		t.Fatal("the failed write left no partial frame: the test does not test the latch")
	}
}

// TestAppendAfterUpgrade: a WAL written as JSON throughout — records, a
// checkpoint, two instances in flight — is opened by this build, which
// appends binary records behind the JSON ones; the file reopens to one
// state with no torn tail, and a tailer attached before the upgrade
// follows across the change of format without missing a segment.
func TestAppendAfterUpgrade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALName)
	at := time.Unix(1700000000, 123).UTC()
	old := []*Record{
		{Kind: KindDeploy, Process: "P", Time: at},
		{Kind: KindInstanceCreated, Instance: 1, Process: "P", EffectKind: "long-running", Data: map[string]string{"in": "1"}, Time: at},
		{Kind: KindActivityStart, Instance: 1, Activity: "A", Occurrence: 1, EffectKind: EffectInvoke, Time: at},
		{Kind: KindActivityComplete, Instance: 1, Activity: "A", Occurrence: 1, EffectKind: EffectInvoke, Data: map[string]string{"out": "a1"}, Time: at},
		{Kind: KindInstanceCreated, Instance: 2, Process: "P", Time: at},
		{Kind: KindInstanceCreated, Instance: 3, Process: "P", Time: at},
		{Kind: KindInstanceComplete, Instance: 3, Time: at},
	}
	old = append(old,
		&Record{Kind: KindCheckpoint, Checkpoint: Replay(derefs(old)), Time: at},
		&Record{Kind: KindActivityComplete, Instance: 2, Activity: "B", Occurrence: 1, EffectKind: EffectSQL, Data: map[string]string{"out": "b1"}, Time: at},
		&Record{Kind: "variable-write", Instance: 2, Data: map[string]string{"s:x": "1"}, Time: at})
	var wal []byte
	for _, r := range old {
		wal = append(wal, legacyFrame(t, r)...)
	}
	must(t, os.WriteFile(path, wal, 0o644))

	tl := NewTailer(dir)
	defer tl.Close()
	standby := NewState()
	follow := func() {
		t.Helper()
		if _, err := tl.Poll(func(rec *Record) error { standby.Apply(rec); return nil }); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	follow()

	r, err := Open(dir)
	must(t, err)
	if r.TornTail || r.RecoveredRecords != len(old) {
		t.Fatalf("JSON journal: torn=%v (%s), %d records of %d", r.TornTail, r.TornTailReason, r.RecoveredRecords, len(old))
	}
	if got := len(r.InFlight()); got != 2 {
		t.Fatalf("%d instances in flight after the upgrade, want 2", got)
	}
	r.SetCheckpointEvery(0)
	must(t, r.ActivityComplete(1, "A", 2, EffectInvoke, map[string]string{"out": "a2"}))
	follow()
	must(t, r.ActivityComplete(2, "B", 2, EffectSQL, map[string]string{"out": "b2"}))
	must(t, r.InstanceComplete(1, ""))
	must(t, r.InstanceCreated(4, "P", "", map[string]string{"in": "4"}))
	want := r.State()
	must(t, r.Close())
	follow()

	raw, err := os.ReadFile(path)
	must(t, err)
	if !bytes.HasPrefix(raw, wal) || raw[len(wal)+frameHeaderLen] != binaryRecord {
		t.Fatal("the upgraded WAL is not the JSON journal followed by binary frames")
	}
	r2, err := Open(dir)
	must(t, err)
	defer r2.Close()
	if r2.TornTail || r2.RecoveredRecords != len(old)+4 {
		t.Fatalf("mixed journal: torn=%v (%s), %d records of %d", r2.TornTail, r2.TornTailReason, r2.RecoveredRecords, len(old)+4)
	}
	if got := r2.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state\n%+v\nwant the state at close\n%+v", got, want)
	}
	if got := want.Instances[2].Memos["B"]; len(got) != 2 || got[0].Data["out"] != "b1" || got[1].Data["out"] != "b2" {
		t.Fatalf("instance 2's memos across the upgrade: %+v", got)
	}
	if !reflect.DeepEqual(standby.Clone(), want) || tl.SkippedSegments() != 0 || tl.Delivered() != int64(len(old)+4) {
		t.Fatalf("tailer delivered %d records, skipped %d segments, and folded\n%+v\nwant\n%+v",
			tl.Delivered(), tl.SkippedSegments(), standby, want)
	}
}

func derefs(recs []*Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out
}

// appendShapes are the records BenchmarkAppend times: the hot path's memo,
// an instance's first record and one that folds to nothing.
var appendShapes = map[string]func(i int) *Record{
	"memo": func(i int) *Record {
		return &Record{Kind: KindActivityComplete, Instance: 1, Activity: "invoke", Occurrence: i, EffectKind: EffectInvoke,
			Data: map[string]string{"out:OrderConfirmation": "C-1", "out:Status": "ok", "out:Code": "200"}}
	},
	"created": func(i int) *Record {
		return &Record{Kind: KindInstanceCreated, Instance: int64(i), Process: "Figure4", EffectKind: "long-running"}
	},
	"deploy": func(i int) *Record { return &Record{Kind: KindDeploy, Process: "Figure4"} },
}

// BenchmarkAppend times Recorder.Append on a real file, unsynced and with
// observability detached; the state is dropped every 4 096 appends.
func BenchmarkAppend(b *testing.B) {
	for name, shape := range appendShapes {
		b.Run(name, func(b *testing.B) {
			r, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			r.SetSyncPolicy(SyncPolicy{Mode: SyncNever})
			r.SetCheckpointEvery(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Append(shape(i)); err != nil {
					b.Fatal(err)
				}
				if i%4096 == 4095 {
					b.StopTimer()
					r.mu.Lock()
					r.state = NewState()
					r.mu.Unlock()
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkScan times recovery's read of 10 000 records in each encoding.
func BenchmarkScan(b *testing.B) {
	for _, enc := range []struct {
		name  string
		frame func(testing.TB, *Record) []byte
	}{{"binary", binaryFrame}, {"legacy", legacyFrame}} {
		b.Run(enc.name, func(b *testing.B) {
			var wal []byte
			for i := 0; i < 10000; i++ {
				r := appendShapes["memo"](i)
				r.Time = time.Unix(1700000000, int64(i)).UTC()
				wal = append(wal, enc.frame(b, r)...)
			}
			b.SetBytes(int64(len(wal)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Scan(bytes.NewReader(wal))
				if err != nil || res.Torn || len(res.Records) != 10000 {
					b.Fatalf("scan: %v torn=%v records=%d", err, res.Torn, len(res.Records))
				}
			}
		})
	}
}
