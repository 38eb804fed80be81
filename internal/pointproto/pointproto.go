// Package pointproto is the wire protocol between the supervisor and its
// point executors: local worker subprocesses, spoken to over their
// stdin/stdout, and remote nodes, over TCP. Both speak one dialect over
// one frame layer (a 1-byte type, a 4-byte length, a payload). The
// executor opens with a NodeHello carrying its identity, capacity, and
// benchstat-style environment capture (per the VM-warmup literature,
// results from different machines are only comparable with per-executor
// environment provenance); the supervisor then streams Task frames — an ID
// plus a Spec — and the executor answers with TaskResult frames in
// whatever order points finish, heartbeating all the while so the
// supervisor's watchdog can tell a slow executor from a dead one.
//
// Like internal/classfile, the decode side is treated as an untrusted-input
// boundary (a crashed or corrupted peer can emit anything): ReadFrame and
// every Unmarshal must return an error on any malformed input and never
// panic or over-allocate, which is what the package's fuzz targets drive
// at them.
package pointproto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the protocol version carried in the NodeHello handshake;
// supervisor and executor must agree exactly (they are the same binary in
// normal use, but a stale binary must be rejected, not misparsed).
const Version = 1

// MaxPayload bounds any single frame's payload. Specs are tens of bytes
// and results are a few kilobytes of gob; anything near the cap is a
// corrupt length prefix.
const MaxPayload = 1 << 24

// MsgType identifies a frame's payload.
type MsgType uint8

// The frame types. Types 1, 2 and 4 belonged to a retired sequential
// worker dialect; they stay unassigned, so a peer still speaking it fails
// at the first frame instead of being misread.
const (
	// MsgHeartbeat is an executor's liveness tick; silence past the
	// supervisor's watchdog budget means the executor is wedged or cut off
	// (not merely slow — a slow executor still ticks).
	MsgHeartbeat MsgType = 3
	// MsgNodeHello is an executor's first frame: version, identity,
	// capacity, and environment capture.
	MsgNodeHello MsgType = 5
	// MsgTask is a supervisor->executor point: a task ID plus a Spec. IDs
	// are the supervisor's; the executor echoes them back.
	MsgTask MsgType = 6
	// MsgTaskResult is an executor->supervisor completion: the task ID
	// plus the opaque result payload.
	MsgTaskResult MsgType = 7
	// MsgNodeGoodbye is an executor's drain announcement: it has finished
	// (and answered) every in-flight task and is about to close the
	// connection deliberately. A supervisor that has seen it treats the
	// following EOF as a clean departure, not a disconnect crash.
	MsgNodeGoodbye MsgType = 8

	maxMsgType = MsgNodeGoodbye
)

// known reports whether t is an assigned frame type.
func (t MsgType) known() bool {
	return t == MsgHeartbeat || (t >= MsgNodeHello && t <= maxMsgType)
}

// String names the frame type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHeartbeat:
		return "heartbeat"
	case MsgNodeHello:
		return "node-hello"
	case MsgTask:
		return "task"
	case MsgTaskResult:
		return "task-result"
	case MsgNodeGoodbye:
		return "node-goodbye"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// WriteFrame writes one frame: a 1-byte type, a 4-byte big-endian payload
// length, then the payload — in a single Write, so a frame is never torn
// across the wire by an interleaved writer or a connection wrapper that
// inspects whole frames.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("pointproto: %s payload %d bytes exceeds max %d", t, len(payload), MaxPayload)
	}
	buf := make([]byte, 5+len(payload))
	buf[0] = byte(t)
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. It returns io.EOF only on a clean boundary
// (no bytes read); a frame truncated mid-header or mid-payload is an
// ErrUnexpectedEOF-wrapped error. Hostile lengths are rejected before any
// allocation.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF here is the clean shutdown path
	}
	t := MsgType(hdr[0])
	if !t.known() {
		return 0, nil, fmt.Errorf("pointproto: unknown frame type %d", hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("pointproto: truncated %s header: %w", t, eofToUnexpected(err))
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("pointproto: %s payload length %d exceeds max %d", t, n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("pointproto: truncated %s payload: %w", t, eofToUnexpected(err))
	}
	return t, payload, nil
}

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Spec is one characterization point, serialized supervisor->executor:
// the point identity plus every runner setting that determines its result.
// The executor reconstructs a Runner from it and computes through the
// exact resilience stack the in-process path uses, which is what makes
// executor and in-process runs byte-identical at the same seed.
type Spec struct {
	Bench     string
	Flavor    string
	Collector string
	HeapMB    int
	Platform  string
	S10       bool
	FanOff    bool

	Seed    uint64
	Quick   bool
	Faults  string // canonical fault-plan spec (faultinject.Plan.String)
	Reps    int
	Retries int
}

// maxSpecString bounds any single encoded spec string; real benchmark and
// platform names are tens of bytes, fault plans hundreds.
const maxSpecString = 1 << 12

// MarshalSpec encodes a spec as a compact varint stream.
func MarshalSpec(s Spec) []byte {
	var b []byte
	for _, str := range []string{s.Bench, s.Flavor, s.Collector, s.Platform, s.Faults} {
		b = binary.AppendUvarint(b, uint64(len(str)))
		b = append(b, str...)
	}
	b = binary.AppendVarint(b, int64(s.HeapMB))
	b = appendBool(b, s.S10)
	b = appendBool(b, s.FanOff)
	b = binary.AppendUvarint(b, s.Seed)
	b = appendBool(b, s.Quick)
	b = binary.AppendVarint(b, int64(s.Reps))
	b = binary.AppendVarint(b, int64(s.Retries))
	return b
}

// UnmarshalSpec decodes a spec, rejecting malformed or trailing input.
func UnmarshalSpec(data []byte) (Spec, error) {
	d := &specDecoder{buf: data}
	var s Spec
	s.Bench = d.str()
	s.Flavor = d.str()
	s.Collector = d.str()
	s.Platform = d.str()
	s.Faults = d.str()
	s.HeapMB = int(d.varint())
	s.S10 = d.bool()
	s.FanOff = d.bool()
	s.Seed = d.uvarint()
	s.Quick = d.bool()
	s.Reps = int(d.varint())
	s.Retries = int(d.varint())
	if d.err != nil {
		return Spec{}, d.err
	}
	if d.off != len(d.buf) {
		return Spec{}, fmt.Errorf("pointproto: spec has %d trailing bytes", len(d.buf)-d.off)
	}
	return s, nil
}

// NodeHello is an executor's handshake frame: protocol identity plus the
// benchstat-style environment capture the supervisor stamps into its
// journal. Capacity is the executor's concurrent-point budget — the
// supervisor keeps at most that many tasks in flight on the connection.
type NodeHello struct {
	Version  uint64
	Name     string
	PID      uint64
	Capacity uint64

	// Environment capture, mirroring benchstat.Environment: two executors'
	// results are only comparable as one campaign when this provenance is
	// recorded next to them.
	GOOS       string
	GOARCH     string
	CPU        string
	GoVersion  string
	GOMAXPROCS uint64
	NumCPU     uint64
}

// MarshalNodeHello encodes an executor handshake.
func MarshalNodeHello(h NodeHello) []byte {
	b := binary.AppendUvarint(nil, h.Version)
	for _, str := range []string{h.Name, h.GOOS, h.GOARCH, h.CPU, h.GoVersion} {
		b = binary.AppendUvarint(b, uint64(len(str)))
		b = append(b, str...)
	}
	b = binary.AppendUvarint(b, h.PID)
	b = binary.AppendUvarint(b, h.Capacity)
	b = binary.AppendUvarint(b, h.GOMAXPROCS)
	b = binary.AppendUvarint(b, h.NumCPU)
	return b
}

// UnmarshalNodeHello decodes an executor handshake, rejecting malformed or
// trailing input.
func UnmarshalNodeHello(data []byte) (NodeHello, error) {
	d := &specDecoder{buf: data}
	var h NodeHello
	h.Version = d.uvarint()
	h.Name = d.str()
	h.GOOS = d.str()
	h.GOARCH = d.str()
	h.CPU = d.str()
	h.GoVersion = d.str()
	h.PID = d.uvarint()
	h.Capacity = d.uvarint()
	h.GOMAXPROCS = d.uvarint()
	h.NumCPU = d.uvarint()
	if d.err != nil {
		return NodeHello{}, d.err
	}
	if d.off != len(d.buf) {
		return NodeHello{}, fmt.Errorf("pointproto: node hello has %d trailing bytes", len(d.buf)-d.off)
	}
	return h, nil
}

// Task is one supervisor->executor point: the supervisor's task ID plus
// the spec.
type Task struct {
	ID   uint64
	Spec Spec
}

// MarshalTask encodes a task: the ID, then the spec bytes.
func MarshalTask(t Task) []byte {
	b := binary.AppendUvarint(nil, t.ID)
	return append(b, MarshalSpec(t.Spec)...)
}

// UnmarshalTask decodes a task.
func UnmarshalTask(data []byte) (Task, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return Task{}, fmt.Errorf("pointproto: task: bad id uvarint")
	}
	spec, err := UnmarshalSpec(data[n:])
	if err != nil {
		return Task{}, fmt.Errorf("pointproto: task %d: %w", id, err)
	}
	return Task{ID: id, Spec: spec}, nil
}

// TaskResult is one executor->supervisor completion: the echoed task ID
// plus the opaque result payload.
type TaskResult struct {
	ID      uint64
	Payload []byte
}

// MarshalTaskResult encodes a completion: the ID, then the payload bytes.
func MarshalTaskResult(t TaskResult) []byte {
	b := binary.AppendUvarint(nil, t.ID)
	return append(b, t.Payload...)
}

// UnmarshalTaskResult decodes a completion. The payload is aliased, not
// copied: frames are single-owner once parsed.
func UnmarshalTaskResult(data []byte) (TaskResult, error) {
	id, n := binary.Uvarint(data)
	if n <= 0 {
		return TaskResult{}, fmt.Errorf("pointproto: task result: bad id uvarint")
	}
	return TaskResult{ID: id, Payload: data[n:]}, nil
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// specDecoder consumes the varint stream with a sticky error, mirroring
// the classfile codec's decoder.
type specDecoder struct {
	buf []byte
	off int
	err error
}

func (d *specDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("pointproto: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *specDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *specDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *specDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool %d", b)
		return false
	}
	return b == 1
}

func (d *specDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxSpecString || n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
