package pbio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"

	"openmeta/internal/machine"
)

func TestWireRoundTrip(t *testing.T) {
	f := registerB(t, machine.Sparc)
	var buf bytes.Buffer
	w := NewWriter(&buf)

	recs := []Record{sampleASDOff(), {"cntrID": "ZME", "fltNum": 77}, sampleASDOff()}
	for _, r := range recs {
		data, err := f.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(f, data); err != nil {
			t.Fatal(err)
		}
	}

	rctx := newCtx(t, machine.X86_64) // receiver on a different machine
	r := NewReader(&buf, rctx)
	for i, want := range recs {
		gf, data, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if gf.ID != f.ID {
			t.Errorf("record %d: format %s, want %s", i, gf.ID, f.ID)
		}
		out, err := gf.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if out["cntrID"] != want["cntrID"] {
			t.Errorf("record %d: cntrID = %v", i, out["cntrID"])
		}
	}
	if _, _, err := r.ReadRecord(); !errors.Is(err, io.EOF) {
		t.Errorf("after stream end: err = %v, want io.EOF", err)
	}
}

func TestWireFormatSentOnce(t *testing.T) {
	f := registerB(t, machine.X86)
	data, err := f.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}

	var once bytes.Buffer
	w := NewWriter(&once)
	for i := 0; i < 10; i++ {
		if err := w.WriteRecord(f, data); err != nil {
			t.Fatal(err)
		}
	}

	// Metadata with every record is a fresh connection per record.
	var every bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := NewWriter(&every).WriteRecord(f, data); err != nil {
			t.Fatal(err)
		}
	}

	meta := len(MarshalMeta(f))
	wantOnce := (5 + meta) + 10*(5+8+len(data))
	if once.Len() != wantOnce {
		t.Errorf("cached stream = %d bytes, want %d", once.Len(), wantOnce)
	}
	wantEvery := 10 * ((5 + meta) + (5 + 8 + len(data)))
	if every.Len() != wantEvery {
		t.Errorf("uncached stream = %d bytes, want %d", every.Len(), wantEvery)
	}
}

func TestWireWriteFormatIdempotent(t *testing.T) {
	f := registerB(t, machine.X86)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFormat(f); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.WriteFormat(f); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("WriteFormat resent metadata")
	}
}

func TestWireMultipleFormats(t *testing.T) {
	ctx := newCtx(t, machine.Sparc)
	fa, err := ctx.Register("A", []IOField{{Name: "x", Type: "integer", Size: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := ctx.Register("B", []IOField{{Name: "y", Type: "float", Size: 8}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	da, _ := fa.Encode(Record{"x": 1})
	db, _ := fb.Encode(Record{"y": 2.0})
	for _, pair := range []struct {
		f *Format
		d []byte
	}{{fa, da}, {fb, db}, {fa, da}} {
		if err := w.WriteRecord(pair.f, pair.d); err != nil {
			t.Fatal(err)
		}
	}
	rctx := newCtx(t, machine.X86)
	r := NewReader(&buf, rctx)
	names := []string{"A", "B", "A"}
	for i, want := range names {
		gf, _, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if gf.Name != want {
			t.Errorf("record %d: format %q, want %q", i, gf.Name, want)
		}
	}
}

func TestWireErrors(t *testing.T) {
	rctx := newCtx(t, machine.X86)

	t.Run("unknown frame type", func(t *testing.T) {
		r := NewReader(bytes.NewReader([]byte{9, 0, 0, 0, 0}), rctx)
		if _, _, err := r.ReadRecord(); !errors.Is(err, ErrUnknownFrame) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("oversized frame", func(t *testing.T) {
		r := NewReader(bytes.NewReader([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF}), rctx)
		if _, _, err := r.ReadRecord(); !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("record before format", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write([]byte{frameRecord, 0, 0, 0, 9})
		buf.Write(make([]byte, 9))
		r := NewReader(&buf, rctx)
		if _, _, err := r.ReadRecord(); !errors.Is(err, ErrNoSuchFormatID) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("short record frame", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write([]byte{frameRecord, 0, 0, 0, 3, 1, 2, 3})
		r := NewReader(&buf, rctx)
		if _, _, err := r.ReadRecord(); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad format frame", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write([]byte{frameFormat, 0, 0, 0, 2, 'X', 'Y'})
		r := NewReader(&buf, rctx)
		if _, _, err := r.ReadRecord(); !errors.Is(err, ErrBadMeta) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		r := NewReader(bytes.NewReader([]byte{frameRecord, 0, 0, 0, 20, 1, 2}), rctx)
		if _, _, err := r.ReadRecord(); err == nil {
			t.Error("want error")
		}
	})
}

func TestWireOverTCP(t *testing.T) {
	// End-to-end over a real socket: sender on simulated SPARC, receiver
	// decoding into a Go struct.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	f := registerB(t, machine.Sparc)
	in := sampleStruct()
	b, err := f.Bind(asdOff{})
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		w := NewWriter(conn)
		data, err := b.Encode(in)
		if err != nil {
			errc <- err
			return
		}
		for i := 0; i < 3; i++ {
			if err := w.WriteRecord(f, data); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rctx := newCtx(t, machine.X86_64)
	r := NewReader(conn, rctx)
	for i := 0; i < 3; i++ {
		gf, data, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := gf.Bind(asdOff{})
		if err != nil {
			t.Fatal(err)
		}
		var out asdOff
		if err := rb.Decode(data, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("record %d: %+v != %+v", i, out, in)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
