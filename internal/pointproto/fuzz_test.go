package pointproto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkedReader returns at most chunk bytes per Read call: the socket
// transport's short-read shape, where a frame arrives split across
// arbitrary TCP segment boundaries. ReadFrame must reassemble it
// identically to a whole-buffer read.
type chunkedReader struct {
	r     io.Reader
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// FuzzReadFrame drives arbitrary bytes at the frame reader: it must never
// panic or allocate proportionally to a hostile length prefix, and any
// frame it accepts must re-encode to the bytes it consumed. Every input is
// also replayed through a short-read transport (1..4 bytes per Read — the
// partial-delivery shape of a socket) and as a coalesced stream (the frame
// followed by more frames in one buffer): both must parse identically to
// the whole-buffer read.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(MsgHeartbeat), 0, 0, 0, 0})
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgTask, MarshalTask(Task{ID: 2, Spec: Spec{Bench: "_209_db", Flavor: "JikesRVM", HeapMB: 64, Platform: "P6", Seed: 1}}))
	f.Add(seed.Bytes())
	var multi bytes.Buffer
	_ = WriteFrame(&multi, MsgTask, MarshalTask(Task{ID: 1, Spec: Spec{Bench: "fop"}}))
	_ = WriteFrame(&multi, MsgTaskResult, MarshalTaskResult(TaskResult{ID: 1, Payload: []byte("r")}))
	f.Add(multi.Bytes())
	f.Add([]byte{byte(MsgTaskResult), 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, payload, err := ReadFrame(r)

		// Short reads: the same bytes dripped 1..4 at a time must yield the
		// same frame (or the same failure class) — a transport that returns
		// partial reads must never change what parses.
		for chunk := 1; chunk <= 4; chunk++ {
			ctyp, cpayload, cerr := ReadFrame(&chunkedReader{r: bytes.NewReader(data), chunk: chunk})
			if (err == nil) != (cerr == nil) {
				t.Fatalf("chunk=%d: whole-read err %v vs chunked err %v", chunk, err, cerr)
			}
			if err == nil && (ctyp != typ || !bytes.Equal(cpayload, payload)) {
				t.Fatalf("chunk=%d: chunked read parsed %s %q, whole read %s %q", chunk, ctyp, cpayload, typ, payload)
			}
		}
		if err != nil {
			return
		}

		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("frame re-encode differs from consumed input")
		}

		// Coalesced reads: the accepted frame followed by another complete
		// frame in one stream must parse as exactly those two frames — no
		// bleed of the second frame's bytes into the first.
		var co bytes.Buffer
		co.Write(out.Bytes())
		if err := WriteFrame(&co, MsgHeartbeat, nil); err != nil {
			t.Fatal(err)
		}
		cr := bytes.NewReader(co.Bytes())
		t1, p1, err1 := ReadFrame(cr)
		if err1 != nil || t1 != typ || !bytes.Equal(p1, payload) {
			t.Fatalf("coalesced stream: first frame parsed %s %q (%v), want %s %q", t1, p1, err1, typ, payload)
		}
		t2, _, err2 := ReadFrame(cr)
		if err2 != nil || t2 != MsgHeartbeat {
			t.Fatalf("coalesced stream: second frame parsed %s (%v), want heartbeat", t2, err2)
		}
		if _, _, err := ReadFrame(cr); !errors.Is(err, io.EOF) {
			t.Fatalf("coalesced stream: trailing read = %v, want io.EOF", err)
		}
	})
}

// FuzzUnmarshalHello drives arbitrary bytes at the handshake and task
// codecs: no panics, no hostile allocations, and accepted values must
// round-trip exactly.
func FuzzUnmarshalHello(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalNodeHello(NodeHello{Version: 99, PID: 1, Capacity: 1}))
	f.Add(MarshalNodeHello(NodeHello{}))
	f.Add(MarshalNodeHello(NodeHello{Version: Version, Name: "node-a:7311", PID: 77, Capacity: 8,
		GOOS: "linux", GOARCH: "amd64", CPU: "model", GoVersion: "go1.22", GOMAXPROCS: 8, NumCPU: 8}))
	f.Add(MarshalTask(Task{ID: 3, Spec: Spec{Bench: "_213_javac", Flavor: "JikesRVM", HeapMB: 96, Platform: "P6"}}))
	f.Add(MarshalTaskResult(TaskResult{ID: 3, Payload: []byte{1, 2, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := UnmarshalNodeHello(data); err == nil {
			again, err := UnmarshalNodeHello(MarshalNodeHello(h))
			if err != nil || again != h {
				t.Fatalf("node hello round-trip mismatch: %+v vs %+v (%v)", again, h, err)
			}
		}
		if task, err := UnmarshalTask(data); err == nil {
			again, err := UnmarshalTask(MarshalTask(task))
			if err != nil || again != task {
				t.Fatalf("task round-trip mismatch: %+v vs %+v (%v)", again, task, err)
			}
		}
		if res, err := UnmarshalTaskResult(data); err == nil {
			again, err := UnmarshalTaskResult(MarshalTaskResult(res))
			if err != nil || again.ID != res.ID || !bytes.Equal(again.Payload, res.Payload) {
				t.Fatalf("task result round-trip mismatch: %+v vs %+v (%v)", again, res, err)
			}
		}
	})
}

// FuzzUnmarshalSpec drives arbitrary bytes at the spec decoder: no panics,
// no hostile allocations, and accepted specs must round-trip exactly.
func FuzzUnmarshalSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalSpec(Spec{}))
	f.Add(MarshalSpec(Spec{Bench: "_213_javac", Flavor: "JikesRVM", Collector: "GenMS",
		HeapMB: 96, Platform: "P6", Seed: 7, Quick: true, Faults: "drop=0.05", Reps: 3, Retries: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSpec(data)
		if err != nil {
			return
		}
		again, err := UnmarshalSpec(MarshalSpec(s))
		if err != nil {
			t.Fatalf("accepted spec failed to round-trip: %v", err)
		}
		if again != s {
			t.Fatalf("spec round-trip mismatch: %+v vs %+v", again, s)
		}
	})
}
