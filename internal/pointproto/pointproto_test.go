package pointproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFrameRoundTrip writes every frame type through a buffer and reads it
// back intact, including an empty payload.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		t       MsgType
		payload []byte
	}{
		{MsgNodeHello, MarshalNodeHello(NodeHello{Version: Version, PID: 1234, Capacity: 1})},
		{MsgTask, MarshalTask(Task{ID: 1, Spec: Spec{Bench: "_209_db", Flavor: "JikesRVM", HeapMB: 64, Platform: "P6", Seed: 1}})},
		{MsgHeartbeat, nil},
		{MsgTaskResult, MarshalTaskResult(TaskResult{ID: 1, Payload: []byte("payload bytes")})},
		{MsgNodeGoodbye, nil},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.t, f.payload); err != nil {
			t.Fatalf("write %s: %v", f.t, err)
		}
	}
	for _, want := range frames {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.t, err)
		}
		if typ != want.t || !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %s round-trip: got %s %q", want.t, typ, payload)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("exhausted stream: err = %v, want io.EOF", err)
	}
}

// TestFrameRejectsHostileLength checks a corrupt length prefix fails before
// any allocation-sized-by-it happens.
func TestFrameRejectsHostileLength(t *testing.T) {
	raw := []byte{byte(MsgTaskResult), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("4GB length prefix accepted")
	}
	if err := WriteFrame(io.Discard, MsgTaskResult, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized write payload accepted")
	}
}

// TestFrameRejectsUnknownType checks type-byte validation, including the
// retired sequential dialect's types (1 hello, 2 spec, 4 result).
func TestFrameRejectsUnknownType(t *testing.T) {
	for _, b := range []byte{0, 1, 2, 4, byte(maxMsgType) + 1, 0xFF} {
		if _, _, err := ReadFrame(bytes.NewReader([]byte{b, 0, 0, 0, 0})); err == nil {
			t.Fatalf("frame type %d accepted", b)
		}
	}
}

// TestFrameTruncation distinguishes the clean EOF boundary from torn
// frames: a header or payload cut short must not read as io.EOF, which the
// supervisor treats as an orderly worker exit.
func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgTaskResult, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("frame cut at %d bytes accepted", cut)
		}
		if err == io.EOF {
			t.Fatalf("frame cut at %d bytes read as clean EOF", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestSpecRoundTrip covers every field, including empties, flag
// combinations, and a one-heap and a seven-heap sweep group.
func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Bench: "_213_javac", Flavor: "JikesRVM", Collector: "SemiSpace", HeapMB: 32,
			Platform: "P6", Seed: 42, Quick: true},
		{Bench: "_213_javac", Flavor: "JikesRVM", Collector: "SemiSpace", HeapMB: 32,
			MoreHeapsMB: []int{48, 64, 80, 96, 112, 128}, Platform: "P6", Seed: 42},
		{Bench: "fop", Flavor: "Kaffe", HeapMB: 128, Platform: "DBPXA255",
			S10: true, FanOff: true, Faults: "drop=0.05,seed=7", Seed: 1},
	}
	for _, want := range specs {
		got, err := UnmarshalSpec(MarshalSpec(want))
		if err != nil {
			t.Fatalf("round-trip %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec round-trip: got %+v, want %+v", got, want)
		}
	}
}

// TestSpecRejectsHostileHeapCount: a heap count above the cap, or above
// the bytes left to hold the heaps, is rejected before it sizes an
// allocation.
func TestSpecRejectsHostileHeapCount(t *testing.T) {
	// A spec with no further heaps ends in five one-byte fields: the heap
	// count (0), S10, FanOff, Seed (0) and Quick.
	b := MarshalSpec(Spec{Bench: "x"})
	head := b[:len(b)-5]
	for _, tc := range []struct {
		n   uint64
		pad int
	}{
		{maxMoreHeaps + 1, maxMoreHeaps + 8}, // above the cap, bytes to spare
		{1 << 62, 64},                        // above the cap and the bytes
		{3, 2},                               // within the cap, above the bytes
	} {
		raw := binary.AppendUvarint(append([]byte(nil), head...), tc.n)
		raw = append(raw, make([]byte, tc.pad)...)
		if _, err := UnmarshalSpec(raw); err == nil || !strings.Contains(err.Error(), "further heaps") {
			t.Fatalf("heap count %d with %d bytes left: err = %v", tc.n, tc.pad, err)
		}
	}
}

// TestSpecRejectsTrailingBytes: a spec followed by junk is corrupt, not
// silently truncated.
func TestSpecRejectsTrailingBytes(t *testing.T) {
	b := append(MarshalSpec(Spec{Bench: "x"}), 0x01)
	if _, err := UnmarshalSpec(b); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestNodeHelloRoundTrip covers the handshake codec, including empty
// environment fields (a node whose CPU model is undiscoverable).
func TestNodeHelloRoundTrip(t *testing.T) {
	hellos := []NodeHello{
		{},
		{Version: Version, Name: "node-a:7311", PID: 4242, Capacity: 8,
			GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R)", GoVersion: "go1.22",
			GOMAXPROCS: 8, NumCPU: 16},
		{Version: Version, Name: "pxa", Capacity: 1, GOOS: "linux", GOARCH: "arm"},
	}
	for _, want := range hellos {
		got, err := UnmarshalNodeHello(MarshalNodeHello(want))
		if err != nil {
			t.Fatalf("round-trip %+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("node hello round-trip: got %+v, want %+v", got, want)
		}
	}
	b := append(MarshalNodeHello(NodeHello{Name: "x"}), 0x00)
	if _, err := UnmarshalNodeHello(b); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestTaskRoundTrip checks the multiplexed task and completion codecs.
func TestTaskRoundTrip(t *testing.T) {
	want := Task{ID: 7, Spec: Spec{Bench: "_209_db", Flavor: "JikesRVM", Collector: "GenMS",
		HeapMB: 64, Platform: "P6", Seed: 3}}
	got, err := UnmarshalTask(MarshalTask(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("task round-trip: got %+v, want %+v", got, want)
	}
	if _, err := UnmarshalTask(nil); err == nil {
		t.Fatal("empty task accepted")
	}

	res := TaskResult{ID: 7, Payload: []byte("opaque result bytes")}
	gotRes, err := UnmarshalTaskResult(MarshalTaskResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.ID != res.ID || !bytes.Equal(gotRes.Payload, res.Payload) {
		t.Fatalf("task result round-trip: got %+v, want %+v", gotRes, res)
	}
	if _, err := UnmarshalTaskResult(nil); err == nil {
		t.Fatal("empty task result accepted")
	}
}
