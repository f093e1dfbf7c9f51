// Package wire is the length-prefixed binary protocol spoken between pcpdad
// (the network transaction daemon, internal/server) and its clients
// (internal/client). It is a pure codec: no networking, no manager types —
// just frames in and out of byte slices, so both endpoints and the fuzzer
// share one implementation that cannot drift.
//
// # Framing
//
// There is one frame shape, for every message in both directions:
//
//	+---------+---------+-----------+---------------+-----------------+
//	| version |  kind   |    tag    |  payload len  |     payload     |
//	|  u8=5   |   u8    |  u32 (BE) |   u32 (BE)    |  len(payload)   |
//	+---------+---------+-----------+---------------+-----------------+
//
// The version byte is Version and nothing else: a peer speaking anything
// older or newer fails at its first frame. The tag is an opaque
// client-chosen request identifier; the server echoes it on the reply, which
// lets a connection keep many requests in flight and receive responses out
// of order (the server executes a session's requests in arrival order, but
// replies — PONG in particular — may overtake). A client that wants strict
// request/reply simply keeps one request in flight. An ERR the server sends
// unasked (connection refused at the limit, malformed frame) carries the
// offending frame's tag when there is one and tag 0 otherwise, and ends the
// connection.
//
// Integers are big-endian. Strings are a u16 length followed by raw bytes.
// The payload length is bounded by MaxPayload; a decoder rejects larger
// frames before allocating anything, and every element count inside a
// payload is checked against the bytes that remain before anything is
// allocated for it, so a hostile peer cannot force memory growth with a
// forged header or count. Decoding is exact: a payload with trailing bytes
// is malformed, which makes encoding canonical (decode∘encode is the
// identity on valid frames — the property FuzzWireRoundTrip checks).
//
// # Conversation
//
//	HELLO  → HELLO_OK (set name + template schema)    — first, once
//	TXN    → TXN_OK(id, values read) | ERR            — a whole transaction
//	PING   → PONG(nonce)                              — liveness, any time
//
// A TXN names a template, carries an optional firm deadline budget and the
// transaction's reads and writes in order (PCP-DA templates have static
// read and write sets, and HELLO_OK has told the client what they are); the
// server admits it, runs every operation, commits, and answers once: TXN_OK
// with the values read, in operation order, or the one ERR that is the
// transaction's outcome. It is the way to run a transaction whose writes do
// not depend on its reads: one frame each way, and a write lock is held for
// the manager's time rather than for round trips.
//
// A client whose writes depend on what it read drives the transaction a
// step at a time instead (one transaction live per session, either way):
//
//	BEGIN  → BEGIN_OK | ERR                           — opens the session txn
//	READ   → READ_OK(value) | ERR
//	WRITE  → WRITE_OK | ERR
//	COMMIT → COMMIT_OK | ERR                          — closes the session txn
//	ABORT  → ABORT_OK                                 — closes the session txn
//
// BEGIN and TXN pass the same admission: with a deadline budget
// (milliseconds) the server refuses with CodeInfeasible when the measured
// queue wait already exceeds it. A TXN's read-only flag marks a snapshot
// transaction, which bypasses admission and takes no locks; the server
// refuses a BEGIN that carries the flag with CodeProtocol.
//
// Every failure is a typed ERR reply (ErrMsg): an ErrorCode the client can
// branch on (overload → back off and retry, aborted → retry the
// transaction, draining → stop) plus a human-readable detail string. After
// any ERR the session holds no transaction.
//
// # Reading
//
// Both endpoints read a connection through one bufio.Reader, and ReadAny is
// the one frame reader over it: it decodes a frame where the reader buffered
// it, so a burst costs one read on the socket and no copy per frame. What it
// returns owns its memory: no Message refers to the reader's buffer or to
// the caller's scratch. DecodeAny is the same decoder over a byte slice.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Version is the one value a frame's version byte may hold. It counts on
// from the four framings this one replaced, so a peer still speaking any of
// them is refused at its first frame instead of being misread.
const Version uint8 = 5

// MaxPayload bounds a frame's payload. Decoders reject larger declared
// lengths before allocating; encoders refuse to produce them.
const MaxPayload = 1 << 20

// MaxString bounds any encoded string (template/set names, error text).
const MaxString = 4096

// headerLen is the frame header: version, kind, tag, payload length.
const headerLen = 10

// Kind identifies a message type. Requests are low values, replies have the
// high bit set, errors are 0xFF.
type Kind uint8

const (
	KindHello  Kind = 0x01
	KindBegin  Kind = 0x02
	KindRead   Kind = 0x03
	KindWrite  Kind = 0x04
	KindCommit Kind = 0x05
	KindAbort  Kind = 0x06
	KindPing   Kind = 0x07
	KindTxn    Kind = 0x08

	KindHelloOK  Kind = 0x81
	KindBeginOK  Kind = 0x82
	KindReadOK   Kind = 0x83
	KindWriteOK  Kind = 0x84
	KindCommitOK Kind = 0x85
	KindAbortOK  Kind = 0x86
	KindPong     Kind = 0x87
	KindTxnOK    Kind = 0x88

	KindErr Kind = 0xFF
)

var kindNames = map[Kind]string{
	KindHello: "HELLO", KindBegin: "BEGIN", KindRead: "READ", KindWrite: "WRITE",
	KindCommit: "COMMIT", KindAbort: "ABORT", KindPing: "PING", KindTxn: "TXN",
	KindHelloOK: "HELLO_OK", KindBeginOK: "BEGIN_OK", KindReadOK: "READ_OK",
	KindWriteOK: "WRITE_OK", KindCommitOK: "COMMIT_OK", KindAbortOK: "ABORT_OK",
	KindPong: "PONG", KindTxnOK: "TXN_OK", KindErr: "ERR",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(0x%02x)", uint8(k))
}

// ErrorCode classifies an ERR reply so clients can react without parsing
// prose.
type ErrorCode uint8

const (
	// CodeProtocol: the request violated the wire or session protocol
	// (malformed frame, undeclared item, unknown template). Not retryable.
	CodeProtocol ErrorCode = iota
	// CodeState: the request is invalid in the session's current state
	// (BEGIN or TXN with a transaction open, READ without one, finished
	// handle).
	CodeState
	// CodeOverload: the admission queue is full. Back off and retry.
	CodeOverload
	// CodeAborted: the transaction was sacrificed (cycle victim or injected
	// fault). The transaction is gone; retry with a fresh BEGIN.
	CodeAborted
	// CodeCancelled: the transaction was torn down by cancellation
	// (disconnect, drain, or injected cancel). Retry only on a new session.
	CodeCancelled
	// CodeDeadline: the server's watchdog force-aborted the transaction,
	// live past its deadline budget plus grace or past StuckTxnAge. Retry
	// iff a fresh instance is still useful.
	CodeDeadline
	// CodeDraining: the server is draining; it admits no new transactions.
	// Stop sending work.
	CodeDraining
	// CodeInternal: unexpected server-side failure.
	CodeInternal
	// CodeShed: the admission queue crossed its high-water mark and this
	// BEGIN was the lowest-priority work queued (or arriving), so it was
	// shed to preserve the priority order end to end. Back off and retry.
	CodeShed
	// CodeInfeasible: the BEGIN carried a firm deadline budget that the
	// measured admission queue wait already makes unreachable; the server
	// refused it instead of queueing work guaranteed to be late. Retry
	// (with backoff) iff a fresh instance is still useful.
	CodeInfeasible

	numCodes
)

var codeNames = [numCodes]string{
	CodeProtocol: "protocol", CodeState: "state", CodeOverload: "overload",
	CodeAborted: "aborted", CodeCancelled: "cancelled", CodeDeadline: "deadline",
	CodeDraining: "draining", CodeInternal: "internal",
	CodeShed: "shed", CodeInfeasible: "infeasible",
}

func (c ErrorCode) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Retryable reports whether a client may retry after this code: overload
// backpressure (after backoff), sacrifice-style aborts (fresh BEGIN), and
// admission-control refusals (shed, infeasible deadline).
func (c ErrorCode) Retryable() bool {
	return c == CodeOverload || c == CodeAborted || c == CodeDeadline ||
		c == CodeShed || c == CodeInfeasible
}

// RemoteError is the client-side error for an ERR reply: the typed code
// plus the server's detail text.
type RemoteError struct {
	Code ErrorCode
	Text string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: remote %s: %s", e.Code, e.Text)
}

// IsCode reports whether err is a RemoteError carrying code.
func IsCode(err error, code ErrorCode) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// ErrMalformed is wrapped by every decode failure. Decoders return it (never
// panic) for any byte sequence that is not a valid frame.
var ErrMalformed = errors.New("wire: malformed frame")

// ErrTooLarge is wrapped when a header declares a payload beyond MaxPayload
// (decode) or a message would encode beyond the limits (encode).
var ErrTooLarge = errors.New("wire: frame exceeds size limits")

// errShortPayload is the sticky error for a payload cursor running out of
// bytes. It is preformatted so the primitive readers stay allocation-free
// on both paths.
var errShortPayload = fmt.Errorf("%w: payload too short", ErrMalformed)

// --- schema -------------------------------------------------------------------

// Step ops inside a TemplateInfo. They mirror txn.StepKind but are
// independently defined so the codec stays decoupled from the model
// packages.
const (
	OpCompute uint8 = 0
	OpRead    uint8 = 1
	OpWrite   uint8 = 2
)

// NoItem is the wire encoding of "no item" (compute steps).
const NoItem uint32 = 0xFFFFFFFF

// StepInfo is one step of a template as advertised in HELLO_OK.
type StepInfo struct {
	Op   uint8  // OpCompute, OpRead or OpWrite
	Item uint32 // NoItem for compute steps
	Dur  uint32 // CPU demand in ticks (informational for clients)
}

// TemplateInfo describes one registered transaction type: everything a load
// generator needs to drive well-formed transactions against the set.
type TemplateInfo struct {
	Name     string
	Priority int32
	Steps    []StepInfo
}

// --- messages -----------------------------------------------------------------

// Message is one protocol message, encodable as a frame payload.
type Message interface {
	Kind() Kind
	encodePayload(dst []byte) ([]byte, error)
	decodePayload(d *dec)
}

// Hello requests the server's transaction-set schema.
type Hello struct{}

// HelloOK is the schema reply.
type HelloOK struct {
	Set       string
	Templates []TemplateInfo
}

// Begin opens the session's transaction as an instance of the named
// template. Deadline, when nonzero, is a firm wall-clock budget in
// milliseconds: the transaction is worthless unless it commits within it,
// so the server may refuse admission outright (CodeInfeasible) and its
// stuck-transaction watchdog force-aborts the instance once the budget
// plus a grace period has elapsed.
//
// ReadOnly shares its encoding with Txn.ReadOnly. A read-only snapshot
// transaction is one TXN frame, so the server refuses a BEGIN that sets
// it with CodeProtocol and goes on serving the session.
type Begin struct {
	Name     string
	Deadline uint32 // firm budget in milliseconds; 0 = none
	ReadOnly bool   // snapshot transaction
}

// BeginOK confirms admission; ID is the manager's job id (observability).
type BeginOK struct{ ID uint64 }

// Read requests a read lock on Item and its visible value.
type Read struct{ Item uint32 }

// ReadOK carries the value read.
type ReadOK struct{ Value int64 }

// Write requests a write lock on Item and buffers Value in the workspace.
type Write struct {
	Item  uint32
	Value int64
}

// WriteOK confirms a buffered write.
type WriteOK struct{}

// Commit installs the session transaction's workspace.
type Commit struct{}

// CommitOK confirms a commit.
type CommitOK struct{}

// Abort discards the session transaction.
type Abort struct{}

// AbortOK confirms an abort (idempotent: also sent when no transaction was
// open).
type AbortOK struct{}

// Ping is a liveness probe; the server echoes Nonce in a Pong.
type Ping struct{ Nonce uint64 }

// Pong answers a Ping.
type Pong struct{ Nonce uint64 }

// TxnOp is one read or write of a whole-transaction request.
type TxnOp struct {
	Op    uint8 // OpRead or OpWrite
	Item  uint32
	Value int64 // OpWrite only; not encoded for a read
}

// Txn is a whole transaction in one frame: BEGIN's fields (same meaning,
// same admission) and then the transaction's reads and writes in the order
// they are to run. The server commits after the last one.
type Txn struct {
	Name     string
	Deadline uint32 // firm budget in milliseconds; 0 = none
	ReadOnly bool   // snapshot transaction: Name is ignored, a write is refused before any snapshot is taken
	Ops      []TxnOp
}

// TxnOK reports a committed Txn: the manager's job id and the value of
// every read, in the order the reads appear in Ops.
type TxnOK struct {
	ID    uint64
	Reads []int64
}

// ErrMsg is the typed error reply.
type ErrMsg struct {
	Code ErrorCode
	Text string
}

func (*Hello) Kind() Kind    { return KindHello }
func (*HelloOK) Kind() Kind  { return KindHelloOK }
func (*Begin) Kind() Kind    { return KindBegin }
func (*BeginOK) Kind() Kind  { return KindBeginOK }
func (*Read) Kind() Kind     { return KindRead }
func (*ReadOK) Kind() Kind   { return KindReadOK }
func (*Write) Kind() Kind    { return KindWrite }
func (*WriteOK) Kind() Kind  { return KindWriteOK }
func (*Commit) Kind() Kind   { return KindCommit }
func (*CommitOK) Kind() Kind { return KindCommitOK }
func (*Abort) Kind() Kind    { return KindAbort }
func (*AbortOK) Kind() Kind  { return KindAbortOK }
func (*Ping) Kind() Kind     { return KindPing }
func (*Pong) Kind() Kind     { return KindPong }
func (*Txn) Kind() Kind      { return KindTxn }
func (*TxnOK) Kind() Kind    { return KindTxnOK }
func (*ErrMsg) Kind() Kind   { return KindErr }

// newMessage returns a zero message for kind, or nil for unknown kinds.
func newMessage(k Kind) Message {
	switch k {
	case KindHello:
		return &Hello{}
	case KindHelloOK:
		return &HelloOK{}
	case KindBegin:
		return &Begin{}
	case KindBeginOK:
		return &BeginOK{}
	case KindRead:
		return &Read{}
	case KindReadOK:
		return &ReadOK{}
	case KindWrite:
		return &Write{}
	case KindWriteOK:
		return &WriteOK{}
	case KindCommit:
		return &Commit{}
	case KindCommitOK:
		return &CommitOK{}
	case KindAbort:
		return &Abort{}
	case KindAbortOK:
		return &AbortOK{}
	case KindPing:
		return &Ping{}
	case KindPong:
		return &Pong{}
	case KindTxn:
		return &Txn{}
	case KindTxnOK:
		return &TxnOK{}
	case KindErr:
		return &ErrMsg{}
	}
	return nil
}

// --- payload encodings --------------------------------------------------------

func (*Hello) encodePayload(dst []byte) ([]byte, error) { return dst, nil }
func (*Hello) decodePayload(*dec)                       {}

func (m *HelloOK) encodePayload(dst []byte) ([]byte, error) {
	dst, err := appendStr(dst, m.Set)
	if err != nil {
		return nil, err
	}
	if len(m.Templates) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d templates", ErrTooLarge, len(m.Templates))
	}
	dst = appendU16(dst, uint16(len(m.Templates)))
	for _, t := range m.Templates {
		if dst, err = appendStr(dst, t.Name); err != nil {
			return nil, err
		}
		dst = appendU32(dst, uint32(t.Priority))
		if len(t.Steps) > 0xFFFF {
			return nil, fmt.Errorf("%w: %d steps", ErrTooLarge, len(t.Steps))
		}
		dst = appendU16(dst, uint16(len(t.Steps)))
		for _, s := range t.Steps {
			dst = append(dst, s.Op)
			dst = appendU32(dst, s.Item)
			dst = appendU32(dst, s.Dur)
		}
	}
	return dst, nil
}

func (m *HelloOK) decodePayload(d *dec) {
	m.Set = d.str()
	n := int(d.u16())
	// A template encodes to ≥ 8 bytes (empty name, no steps); bounding the
	// allocation by the remaining payload keeps forged counts cheap.
	if max := d.remaining() / 8; n > max {
		d.failf("template count %d exceeds payload", n)
		return
	}
	if n > 0 { // zero-count decodes as nil, keeping encoding canonical
		m.Templates = make([]TemplateInfo, 0, n)
	}
	for i := 0; i < n && d.ok(); i++ {
		var t TemplateInfo
		t.Name = d.str()
		t.Priority = int32(d.u32())
		k := int(d.u16())
		if max := d.remaining() / 9; k > max { // a step is exactly 9 bytes
			d.failf("step count %d exceeds payload", k)
			return
		}
		if k > 0 {
			t.Steps = make([]StepInfo, 0, k)
		}
		for j := 0; j < k && d.ok(); j++ {
			op := d.u8()
			if op > OpWrite {
				d.failf("unknown step op %d", op)
				return
			}
			t.Steps = append(t.Steps, StepInfo{Op: op, Item: d.u32(), Dur: d.u32()})
		}
		m.Templates = append(m.Templates, t)
	}
}

func (m *Begin) encodePayload(dst []byte) ([]byte, error) {
	return appendBeginFields(dst, m.Name, m.Deadline, m.ReadOnly)
}

func (m *Begin) decodePayload(d *dec) {
	m.Name, m.Deadline, m.ReadOnly = d.beginFields()
}

// appendBeginFields encodes what BEGIN and TXN share: template name,
// deadline budget, read-only flag.
func appendBeginFields(dst []byte, name string, deadline uint32, readOnly bool) ([]byte, error) {
	dst, err := appendStr(dst, name)
	if err != nil {
		return nil, err
	}
	dst = appendU32(dst, deadline)
	ro := uint8(0)
	if readOnly {
		ro = 1
	}
	return append(dst, ro), nil
}

func (d *dec) beginFields() (name string, deadline uint32, readOnly bool) {
	name = d.str()
	deadline = d.u32()
	switch d.u8() {
	case 0:
	case 1:
		readOnly = true
	default:
		// Reject junk so encoding stays canonical.
		d.failf("bad read-only flag")
	}
	return name, deadline, readOnly
}

func (m *BeginOK) encodePayload(dst []byte) ([]byte, error) {
	return appendU64(dst, m.ID), nil
}
func (m *BeginOK) decodePayload(d *dec) { m.ID = d.u64() }

func (m *Read) encodePayload(dst []byte) ([]byte, error) { return appendU32(dst, m.Item), nil }
func (m *Read) decodePayload(d *dec)                     { m.Item = d.u32() }

func (m *ReadOK) encodePayload(dst []byte) ([]byte, error) {
	return appendU64(dst, uint64(m.Value)), nil
}
func (m *ReadOK) decodePayload(d *dec) { m.Value = int64(d.u64()) }

func (m *Write) encodePayload(dst []byte) ([]byte, error) {
	dst = appendU32(dst, m.Item)
	return appendU64(dst, uint64(m.Value)), nil
}
func (m *Write) decodePayload(d *dec) {
	m.Item = d.u32()
	m.Value = int64(d.u64())
}

func (*WriteOK) encodePayload(dst []byte) ([]byte, error)  { return dst, nil }
func (*WriteOK) decodePayload(*dec)                        {}
func (*Commit) encodePayload(dst []byte) ([]byte, error)   { return dst, nil }
func (*Commit) decodePayload(*dec)                         {}
func (*CommitOK) encodePayload(dst []byte) ([]byte, error) { return dst, nil }
func (*CommitOK) decodePayload(*dec)                       {}
func (*Abort) encodePayload(dst []byte) ([]byte, error)    { return dst, nil }
func (*Abort) decodePayload(*dec)                          {}
func (*AbortOK) encodePayload(dst []byte) ([]byte, error)  { return dst, nil }
func (*AbortOK) decodePayload(*dec)                        {}

func (m *Ping) encodePayload(dst []byte) ([]byte, error) {
	return appendU64(dst, m.Nonce), nil
}
func (m *Ping) decodePayload(d *dec) { m.Nonce = d.u64() }
func (m *Pong) encodePayload(dst []byte) ([]byte, error) {
	return appendU64(dst, m.Nonce), nil
}
func (m *Pong) decodePayload(d *dec) { m.Nonce = d.u64() }

func (m *Txn) encodePayload(dst []byte) ([]byte, error) {
	dst, err := appendBeginFields(dst, m.Name, m.Deadline, m.ReadOnly)
	if err != nil {
		return nil, err
	}
	if len(m.Ops) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d operations", ErrTooLarge, len(m.Ops))
	}
	dst = appendU16(dst, uint16(len(m.Ops)))
	for _, op := range m.Ops {
		dst = append(dst, op.Op)
		dst = appendU32(dst, op.Item)
		switch op.Op {
		case OpRead:
		case OpWrite:
			dst = appendU64(dst, uint64(op.Value))
		default:
			return nil, fmt.Errorf("%w: TXN op %d", ErrMalformed, op.Op)
		}
	}
	return dst, nil
}

func (m *Txn) decodePayload(d *dec) {
	m.Name, m.Deadline, m.ReadOnly = d.beginFields()
	n := int(d.u16())
	if max := d.remaining() / 5; n > max { // an op is at least 5 bytes (a read)
		d.failf("op count %d exceeds payload", n)
		return
	}
	if n > 0 { // zero-count decodes as nil, keeping encoding canonical
		m.Ops = make([]TxnOp, 0, n)
	}
	for i := 0; i < n && d.ok(); i++ {
		op := TxnOp{Op: d.u8(), Item: d.u32()}
		switch op.Op {
		case OpRead:
		case OpWrite:
			op.Value = int64(d.u64())
		default:
			d.failf("unknown TXN op %d", op.Op)
			return
		}
		m.Ops = append(m.Ops, op)
	}
}

func (m *TxnOK) encodePayload(dst []byte) ([]byte, error) {
	dst = appendU64(dst, m.ID)
	if len(m.Reads) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d values read", ErrTooLarge, len(m.Reads))
	}
	dst = appendU16(dst, uint16(len(m.Reads)))
	for _, v := range m.Reads {
		dst = appendU64(dst, uint64(v))
	}
	return dst, nil
}

func (m *TxnOK) decodePayload(d *dec) {
	m.ID = d.u64()
	n := int(d.u16())
	if max := d.remaining() / 8; n > max {
		d.failf("read count %d exceeds payload", n)
		return
	}
	if n > 0 {
		m.Reads = make([]int64, 0, n)
	}
	for i := 0; i < n && d.ok(); i++ {
		m.Reads = append(m.Reads, int64(d.u64()))
	}
}

func (m *ErrMsg) encodePayload(dst []byte) ([]byte, error) {
	if m.Code >= numCodes {
		return nil, fmt.Errorf("%w: error code %d", ErrMalformed, m.Code)
	}
	dst = append(dst, uint8(m.Code))
	return appendStr(dst, m.Text)
}

func (m *ErrMsg) decodePayload(d *dec) {
	c := ErrorCode(d.u8())
	if c >= numCodes {
		d.failf("unknown error code %d", c)
		return
	}
	m.Code = c
	m.Text = d.str()
}

// --- framing ------------------------------------------------------------------

// AppendTagged encodes m as one frame carrying tag, appended to dst; the
// receiver echoes the tag on the matching reply. ver must be Version: the
// parameter exists so that a caller states which framing it believes it is
// speaking and is refused when that is not this one.
func AppendTagged(dst []byte, ver uint8, tag uint32, m Message) ([]byte, error) {
	if ver != Version {
		return nil, fmt.Errorf("%w: cannot encode at version %d, want %d", ErrMalformed, ver, Version)
	}
	start := len(dst)
	dst = append(dst, ver, uint8(m.Kind()),
		byte(tag>>24), byte(tag>>16), byte(tag>>8), byte(tag), 0, 0, 0, 0)
	dst, err := m.encodePayload(dst)
	if err != nil {
		return nil, err
	}
	plen := len(dst) - start - headerLen
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	putU32(dst[start+headerLen-4:], uint32(plen))
	return dst, nil
}

// errVersion is the failure for a frame whose first byte is not Version.
func errVersion(ver uint8) error {
	return fmt.Errorf("%w: version %d, want %d", ErrMalformed, ver, Version)
}

// DecodeAny decodes the first frame in b, returning the message, the
// frame's version (always Version), its tag, and the unconsumed remainder.
// All failures wrap ErrMalformed or ErrTooLarge; the decoder never panics
// and never allocates more than the declared (bounded) payload.
func DecodeAny(b []byte) (m Message, ver uint8, tag uint32, rest []byte, err error) {
	if len(b) > 0 && b[0] != Version {
		return nil, 0, 0, b, errVersion(b[0])
	}
	if len(b) < headerLen {
		return nil, 0, 0, b, fmt.Errorf("%w: short header (%d bytes)", ErrMalformed, len(b))
	}
	kind, tag := Kind(b[1]), u32(b[2:])
	plen := int(u32(b[headerLen-4:]))
	if plen > MaxPayload {
		return nil, 0, 0, b, fmt.Errorf("%w: declared payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	if len(b) < headerLen+plen {
		return nil, 0, 0, b, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrMalformed, len(b)-headerLen, plen)
	}
	m, err = decodeBody(kind, b[headerLen:headerLen+plen])
	if err != nil {
		return nil, 0, 0, b, err
	}
	return m, Version, tag, b[headerLen+plen:], nil
}

// decodeBody decodes one payload.
func decodeBody(kind Kind, payload []byte) (Message, error) {
	m := newMessage(kind)
	if m == nil {
		return nil, fmt.Errorf("%w: unknown kind 0x%02x", ErrMalformed, uint8(kind))
	}
	// The cursor reaches decodePayload through the Message interface, so
	// it cannot live on the stack; pooled, a frame costs its message and
	// nothing else.
	d := decPool.Get().(*dec)
	*d = dec{b: payload}
	m.decodePayload(d)
	err, trailing := d.err, len(d.b)-d.off
	*d = dec{} // drop the reference into the caller's read buffer
	decPool.Put(d)
	if err != nil {
		return nil, err
	}
	if trailing != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes after %s", ErrMalformed, trailing, kind)
	}
	return m, nil
}

var decPool = sync.Pool{New: func() any { return new(dec) }}

// ReadAny reads exactly one frame from br and decodes it out of the reader's
// own buffer: a frame that fits br.Size() is peeked, decoded and discarded,
// never copied; a larger one (a schema reply) is read into scratch, which is
// grown as needed and returned for reuse. It returns the message, the
// frame's version and its tag. A clean EOF before any header byte is
// returned as io.EOF; every other failure is either a transport error from
// the reader or wraps ErrMalformed/ErrTooLarge. The version byte is checked
// before anything else is waited for, so a peer on another framing is
// refused at its first byte rather than waited on for a header of this
// one's length; once the header is in, a failure still reports the frame's
// tag, so the refusal can be addressed to it. Nothing of a frame that fits
// the buffer is consumed until all of it is in: after a transport error the
// caller can clear (a read deadline), the next call starts the frame over.
func ReadAny(br *bufio.Reader, scratch []byte) (Message, uint8, uint32, []byte, error) {
	b, err := br.Peek(1)
	if err != nil {
		return nil, 0, 0, scratch, err // io.EOF: the stream ended between frames
	}
	if b[0] != Version {
		return nil, 0, 0, scratch, errVersion(b[0])
	}
	if b, err = br.Peek(headerLen); err != nil {
		return nil, 0, 0, scratch, truncated(err, "header")
	}
	kind, tag := Kind(b[1]), u32(b[2:])
	plen := int(u32(b[headerLen-4:]))
	if plen > MaxPayload {
		return nil, Version, tag, scratch, fmt.Errorf("%w: declared payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	var m Message
	if need := headerLen + plen; need <= br.Size() {
		if b, err = br.Peek(need); err == nil {
			m, err = decodeBody(kind, b[headerLen:])
			_, _ = br.Discard(need) // buffered: cannot fail
		}
	} else {
		if cap(scratch) < plen {
			scratch = make([]byte, 0, plen)
		}
		_, _ = br.Discard(headerLen) // buffered: cannot fail
		if _, err = io.ReadFull(br, scratch[:plen]); err == nil {
			m, err = decodeBody(kind, scratch[:plen])
		}
	}
	return m, Version, tag, scratch, truncated(err, "payload")
}

// truncated turns a stream that ended inside a frame into the malformed
// frame it is; any other error, and nil, pass through.
func truncated(err error, part string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s truncated", ErrMalformed, part)
	}
	return err
}

// --- primitive encoding -------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendStr(b []byte, s string) ([]byte, error) {
	if len(s) > MaxString {
		return nil, fmt.Errorf("%w: string of %d bytes (max %d)", ErrTooLarge, len(s), MaxString)
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...), nil
}

//pcpda:alloc-free
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

//pcpda:alloc-free
func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// dec is a bounds-checked payload cursor. The first failure sticks; later
// reads return zero values so message decoders can stay straight-line.
type dec struct {
	b   []byte
	off int
	err error
}

//pcpda:alloc-free
func (d *dec) ok() bool { return d.err == nil }

func (d *dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// short records running out of payload without allocating an error.
//
//pcpda:alloc-free
func (d *dec) short() {
	if d.err == nil {
		d.err = errShortPayload
	}
}

//pcpda:alloc-free
func (d *dec) remaining() int { return len(d.b) - d.off }

//pcpda:alloc-free
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.short()
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

//pcpda:alloc-free
func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

//pcpda:alloc-free
func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

//pcpda:alloc-free
func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return u32(b)
}

//pcpda:alloc-free
func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(u32(b))<<32 | uint64(u32(b[4:]))
}

func (d *dec) str() string {
	n := int(d.u16())
	if n > MaxString {
		d.failf("string of %d bytes (max %d)", n, MaxString)
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
