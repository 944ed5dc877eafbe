package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"corona/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{Time: 0, Thread: 0, Addr: 0x1000, Write: false},
		{Time: 100, Thread: 1023, Addr: 0xdeadbeef, Write: true},
		{Time: 1 << 40, Thread: 512, Addr: 0},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, uint64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestStreamingCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, CountUnknown)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Write(Record{Time: sim.Time(i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d records, want 5", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("NOTATRACE-------")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Write(Record{Time: 1})
	w.w.Flush() // flush without count validation: simulate a crashed writer
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record should read: %v", err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated read err = %v, want truncation error", err)
	}
}

func TestWriteBeyondCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	if err := w.Write(Record{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{}); err == nil {
		t.Fatal("write beyond declared count succeeded")
	}
}

func TestFlushCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Write(Record{})
	if err := w.Flush(); err == nil {
		t.Fatal("flush with missing records succeeded")
	}
}

func TestClusterMapping(t *testing.T) {
	r := Record{Thread: 17}
	if got := r.Cluster(16); got != 1 {
		t.Errorf("Cluster(16) = %d, want 1", got)
	}
	if got := (Record{Thread: 1023}).Cluster(16); got != 63 {
		t.Errorf("thread 1023 cluster = %d, want 63", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(times []uint32, seed uint64) bool {
		rng := sim.NewRand(seed)
		recs := make([]Record, len(times))
		for i, tm := range times {
			recs[i] = Record{
				Time:   sim.Time(tm),
				Thread: uint16(rng.Intn(1024)),
				Addr:   rng.Uint64(),
				Write:  rng.Intn(2) == 0,
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, uint64(len(recs)))
		if err != nil {
			return false
		}
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := ReadAll(rd)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.after -= len(p)
	return len(p), nil
}

func TestWriterErrorPropagation(t *testing.T) {
	// Header write fails immediately.
	if _, err := NewWriter(&failWriter{after: 0}, 1); err == nil {
		// The bufio layer may defer the error to Flush; accept either, but
		// a full write-then-flush cycle must surface it.
		w, _ := NewWriter(&failWriter{after: 0}, 1)
		w.Write(Record{})
		if w.Flush() == nil {
			t.Fatal("failing writer never surfaced an error")
		}
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, CountUnknown)
	if w.Count() != 0 {
		t.Fatal("fresh writer count != 0")
	}
	w.Write(Record{})
	w.Write(Record{})
	if w.Count() != 2 {
		t.Fatalf("Count = %d, want 2", w.Count())
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("COR")); err == nil {
		t.Fatal("short magic accepted")
	}
	if _, err := NewReader(bytes.NewBufferString(Magic + "1234")); err == nil {
		t.Fatal("short count accepted")
	}
}

func TestReaderCountUnknownTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, CountUnknown)
	w.Write(Record{Time: 1})
	w.Flush()
	// Chop mid-record.
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewBuffer(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated streaming read err = %v, want truncation error", err)
	}
}

func TestReadAllPropagatesError(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Write(Record{})
	w.w.Flush()
	r, _ := NewReader(&buf)
	if _, err := ReadAll(r); err == nil {
		t.Fatal("ReadAll swallowed a truncation error")
	}
}

// BenchmarkRecordIO backs the package comment's buffering numbers: the
// record codec against its own 64 KiB bufio layer, versus the same codec
// forced through an unbuffered pipe (one syscall-grade boundary per
// record), which is what naive per-record file I/O would pay.
func BenchmarkRecordIO(b *testing.B) {
	rec := Record{Time: 12345, Thread: 7, Addr: 0xdeadbeef, Write: true}
	b.Run("buffered", func(b *testing.B) {
		w, err := NewWriter(io.Discard, CountUnknown)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unbuffered-pipe", func(b *testing.B) {
		pr, pw, err := os.Pipe()
		if err != nil {
			b.Fatal(err)
		}
		defer pr.Close()
		defer pw.Close()
		go func() {
			buf := make([]byte, 1<<16)
			for {
				if _, err := pr.Read(buf); err != nil {
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One write per record, no buffer in between — the shape of
			// per-record file I/O without the bufio layer.
			var buf [recordBytes]byte
			binary.LittleEndian.PutUint64(buf[0:], uint64(rec.Time))
			binary.LittleEndian.PutUint16(buf[8:], rec.Thread)
			binary.LittleEndian.PutUint64(buf[10:], rec.Addr)
			if _, err := pw.Write(buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// encode writes recs under the given header count, flushing the buffer
// without the writer's count check so short streams can be built too.
func encode(t testing.TB, count uint64, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, count)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader fuzzes the trace file format: for any bytes, NewReader and
// ReadAll either fail or return records; a declared count must match the
// records returned; and re-encoding what was read must read back
// identical.
func FuzzReader(f *testing.F) {
	recs := []Record{
		{Time: 0, Thread: 0, Addr: 0x1000, Write: false},
		{Time: 100, Thread: 1023, Addr: 0xdeadbeef, Write: true},
		{Time: 1 << 40, Thread: 512, Addr: 0},
	}
	f.Add(encode(f, uint64(len(recs)), recs))
	f.Add(encode(f, CountUnknown, recs))
	f.Add(encode(f, 2, recs[:1]))             // truncated: a crashed writer
	f.Add(encode(f, CountUnknown, recs)[:30]) // torn record, no declared count
	f.Add(encode(f, 0, nil))
	f.Add([]byte("NOTATRACE-------"))
	f.Add([]byte(Magic + "\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := ReadAll(r)
		if err != nil {
			return
		}
		if n := r.Count(); n != CountUnknown && uint64(len(got)) != n {
			t.Fatalf("header declares %d records, ReadAll returned %d", n, len(got))
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, r.Count())
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range got {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(r2)
		if err != nil {
			t.Fatalf("re-encoded trace does not read back: %v", err)
		}
		if len(again) != len(got) || (len(got) > 0 && !reflect.DeepEqual(again, got)) {
			t.Fatalf("re-encoded trace reads back differently:\ngot  %+v\nwant %+v", again, got)
		}
	})
}
