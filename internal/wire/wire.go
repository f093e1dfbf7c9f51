// Package wire is the versioned, length-prefixed binary protocol spoken
// between pcpdad (the network transaction daemon, internal/server) and its
// clients (internal/client). It is a pure codec: no networking, no manager
// types — just frames in and out of byte slices, so both endpoints and the
// fuzzer share one implementation that cannot drift.
//
// # Framing
//
// An untagged frame (versions 1 and 2) is:
//
//	+---------+---------+---------------+-----------------+
//	| version |  kind   |  payload len  |     payload     |
//	| u8=1|2  |   u8    |   u32 (BE)    |  len(payload)   |
//	+---------+---------+---------------+-----------------+
//
// A tagged frame (versions 3 and 4, pipelining) inserts a request tag
// between the kind and the payload length:
//
//	+---------+---------+-----------+---------------+-----------------+
//	| version |  kind   |    tag    |  payload len  |     payload     |
//	| u8=3|4  |   u8    |  u32 (BE) |   u32 (BE)    |  len(payload)   |
//	+---------+---------+-----------+---------------+-----------------+
//
// The tag is an opaque client-chosen request identifier; the server echoes
// it on the reply frame, which lets a connection keep many requests in
// flight and receive responses out of order (in practice the server
// executes a session's requests in arrival order, but replies — PONG in
// particular — may overtake). Untagged and tagged frames may be mixed on
// one connection; an untagged request always gets an untagged reply at the
// request's version, preserving strict request/response for v1/v2 clients.
//
// Integers are big-endian. Strings are a u16 length followed by raw bytes.
// The payload length is bounded by MaxPayload; a decoder rejects larger
// frames before allocating anything, so a hostile peer cannot force memory
// growth with a forged header. Decoding is exact: a payload with trailing
// bytes is malformed, which makes encoding canonical per version
// (decode∘encode at the decoded version is the identity on valid frames —
// the property FuzzWireRoundTrip checks).
//
// # Versions
//
//	V1: base protocol (BEGIN has no deadline; codes through CodeInternal)
//	V2: BEGIN carries a firm-deadline budget; CodeShed / CodeInfeasible
//	V3: tagged frames (pipelining); payload encodings identical to V2
//	V4: BEGIN carries a read-only flag (snapshot transactions); framing
//	    identical to V3
//
// # Conversation
//
// The client side of one session is request/reply (strictly sequential
// when untagged, pipelined FIFO when tagged):
//
//	HELLO  → HELLO_OK (set name + template schema)    — optional, any time
//	BEGIN  → BEGIN_OK | ERR                           — opens the session txn
//	         (carries an optional firm deadline budget in milliseconds;
//	         the server refuses admission with CodeInfeasible when the
//	         measured queue wait already exceeds it)
//	READ   → READ_OK(value) | ERR
//	WRITE  → WRITE_OK | ERR
//	COMMIT → COMMIT_OK | ERR                          — closes the session txn
//	ABORT  → ABORT_OK                                 — closes the session txn
//	PING   → PONG(nonce)                              — liveness, any time
//
// Every failure is a typed ERR reply (ErrMsg): an ErrorCode the client can
// branch on (overload → back off and retry, aborted → retry the
// transaction, draining → stop) plus a human-readable detail string.
package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Protocol versions. The version byte of a frame header selects the header
// shape (V3 frames carry a request tag) and the payload encoding (V1 BEGIN
// has no deadline field, V1 error codes stop at CodeInternal).
const (
	V1 uint8 = 1
	V2 uint8 = 2
	V3 uint8 = 3
	V4 uint8 = 4

	// Version is the highest protocol version this build speaks; servers
	// advertise it (possibly pinned lower) in HelloOK.Proto.
	Version = V4
)

// MaxPayload bounds a frame's payload. Decoders reject larger declared
// lengths before allocating; encoders refuse to produce them.
const MaxPayload = 1 << 20

// MaxString bounds any encoded string (template/set names, error text).
const MaxString = 4096

// Header sizes: untagged (v1/v2) and tagged (v3/v4) frames.
const (
	headerLen       = 6  // version, kind, payload length
	taggedHeaderLen = 10 // version, kind, tag, payload length
)

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

	KindHelloOK  Kind = 0x81
	KindBeginOK  Kind = 0x82
	KindReadOK   Kind = 0x83
	KindWriteOK  Kind = 0x84
	KindCommitOK Kind = 0x85
	KindAbortOK  Kind = 0x86
	KindPong     Kind = 0x87

	KindErr Kind = 0xFF
)

var kindNames = map[Kind]string{
	KindHello: "HELLO", KindBegin: "BEGIN", KindRead: "READ", KindWrite: "WRITE",
	KindCommit: "COMMIT", KindAbort: "ABORT", KindPing: "PING",
	KindHelloOK: "HELLO_OK", KindBeginOK: "BEGIN_OK", KindReadOK: "READ_OK",
	KindWriteOK: "WRITE_OK", KindCommitOK: "COMMIT_OK", KindAbortOK: "ABORT_OK",
	KindPong: "PONG", KindErr: "ERR",
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
	// (BEGIN with a transaction open, READ without one, finished handle).
	CodeState
	// CodeOverload: the admission queue is full. Back off and retry.
	CodeOverload
	// CodeAborted: the transaction was sacrificed (cycle victim or injected
	// fault). The transaction is gone; retry with a fresh BEGIN.
	CodeAborted
	// CodeCancelled: the transaction was torn down by cancellation
	// (disconnect, drain, or injected cancel). Retry only on a new session.
	CodeCancelled
	// CodeDeadline: firm-deadline enforcement aborted the transaction.
	// Retry iff a fresh instance is still useful.
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

// numCodesV1 is the error-code space of protocol version 1: CodeShed and
// CodeInfeasible arrived with v2, so frames at v1 cannot carry them.
const numCodesV1 = CodeShed

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

// CodeForVersion maps c to the nearest code expressible at wire version
// ver: a v1 peer has no CodeShed/CodeInfeasible, so both degrade to
// CodeOverload (the correct client reaction — back off and retry — is the
// same). Codes within the version's space pass through unchanged.
func CodeForVersion(c ErrorCode, ver uint8) ErrorCode {
	if ver <= V1 && c >= numCodesV1 {
		return CodeOverload
	}
	return c
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

// Message is one protocol message, encodable as a frame payload. Payload
// encodings may depend on the frame version (BEGIN's deadline and the
// overload error codes arrived with v2), so both directions thread it.
type Message interface {
	Kind() Kind
	encodePayload(dst []byte, ver uint8) ([]byte, error)
	decodePayload(d *dec)
}

// Hello requests the server's transaction-set schema.
type Hello struct{}

// HelloOK is the schema reply.
type HelloOK struct {
	Proto     uint8 // highest wire version the server speaks (≤ Version)
	Set       string
	Templates []TemplateInfo
}

// Begin opens the session's transaction as an instance of the named
// template. Deadline, when nonzero, is a firm wall-clock budget in
// milliseconds: the transaction is worthless unless it commits within it,
// so the server may refuse admission outright (CodeInfeasible) and its
// stuck-transaction watchdog force-aborts the instance once the budget
// plus a grace period has elapsed. The field exists from v2 on; a v1
// frame cannot carry it.
//
// ReadOnly, when set, declares the transaction a read-only snapshot
// transaction: the server routes it around admission entirely (no queue
// wait, no shed eligibility, no locks) and answers its reads from the
// multiversion snapshot path. Writes on such a transaction fail with
// CodeProtocol. The flag exists from v4 on; earlier frames cannot carry
// it.
type Begin struct {
	Name     string
	Deadline uint32 // firm budget in milliseconds; 0 = none
	ReadOnly bool   // snapshot transaction; requires wire v4
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
	case KindErr:
		return &ErrMsg{}
	}
	return nil
}

// --- payload encodings --------------------------------------------------------

func (*Hello) encodePayload(dst []byte, _ uint8) ([]byte, error) { return dst, nil }
func (*Hello) decodePayload(*dec)                                {}

func (m *HelloOK) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	dst = append(dst, m.Proto)
	var err error
	if dst, err = appendStr(dst, m.Set); err != nil {
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
	m.Proto = d.u8()
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

func (m *Begin) encodePayload(dst []byte, ver uint8) ([]byte, error) {
	dst, err := appendStr(dst, m.Name)
	if err != nil {
		return nil, err
	}
	if ver <= V1 {
		if m.Deadline != 0 {
			return nil, fmt.Errorf("%w: BEGIN deadline requires wire v2", ErrMalformed)
		}
		if m.ReadOnly {
			return nil, fmt.Errorf("%w: BEGIN read-only requires wire v4", ErrMalformed)
		}
		return dst, nil
	}
	dst = appendU32(dst, m.Deadline)
	if ver < V4 {
		if m.ReadOnly {
			return nil, fmt.Errorf("%w: BEGIN read-only requires wire v4", ErrMalformed)
		}
		return dst, nil
	}
	ro := uint8(0)
	if m.ReadOnly {
		ro = 1
	}
	return append(dst, ro), nil
}

func (m *Begin) decodePayload(d *dec) {
	m.Name = d.str()
	if d.ver >= V2 {
		m.Deadline = d.u32()
	}
	if d.ver >= V4 {
		switch d.u8() {
		case 0:
		case 1:
			m.ReadOnly = true
		default:
			// Reject junk so encoding stays canonical per version.
			d.failf("bad BEGIN read-only flag")
		}
	}
}

func (m *BeginOK) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	return appendU64(dst, m.ID), nil
}
func (m *BeginOK) decodePayload(d *dec) { m.ID = d.u64() }

func (m *Read) encodePayload(dst []byte, _ uint8) ([]byte, error) { return appendU32(dst, m.Item), nil }
func (m *Read) decodePayload(d *dec)                              { m.Item = d.u32() }

func (m *ReadOK) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	return appendU64(dst, uint64(m.Value)), nil
}
func (m *ReadOK) decodePayload(d *dec) { m.Value = int64(d.u64()) }

func (m *Write) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	dst = appendU32(dst, m.Item)
	return appendU64(dst, uint64(m.Value)), nil
}
func (m *Write) decodePayload(d *dec) {
	m.Item = d.u32()
	m.Value = int64(d.u64())
}

func (*WriteOK) encodePayload(dst []byte, _ uint8) ([]byte, error)  { return dst, nil }
func (*WriteOK) decodePayload(*dec)                                 {}
func (*Commit) encodePayload(dst []byte, _ uint8) ([]byte, error)   { return dst, nil }
func (*Commit) decodePayload(*dec)                                  {}
func (*CommitOK) encodePayload(dst []byte, _ uint8) ([]byte, error) { return dst, nil }
func (*CommitOK) decodePayload(*dec)                                {}
func (*Abort) encodePayload(dst []byte, _ uint8) ([]byte, error)    { return dst, nil }
func (*Abort) decodePayload(*dec)                                   {}
func (*AbortOK) encodePayload(dst []byte, _ uint8) ([]byte, error)  { return dst, nil }
func (*AbortOK) decodePayload(*dec)                                 {}

func (m *Ping) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	return appendU64(dst, m.Nonce), nil
}
func (m *Ping) decodePayload(d *dec) { m.Nonce = d.u64() }
func (m *Pong) encodePayload(dst []byte, _ uint8) ([]byte, error) {
	return appendU64(dst, m.Nonce), nil
}
func (m *Pong) decodePayload(d *dec) { m.Nonce = d.u64() }

func (m *ErrMsg) encodePayload(dst []byte, ver uint8) ([]byte, error) {
	if m.Code >= numCodes || (ver <= V1 && m.Code >= numCodesV1) {
		return nil, fmt.Errorf("%w: error code %d not encodable at v%d", ErrMalformed, m.Code, ver)
	}
	dst = append(dst, uint8(m.Code))
	return appendStr(dst, m.Text)
}

func (m *ErrMsg) decodePayload(d *dec) {
	c := ErrorCode(d.u8())
	if c >= numCodes || (d.ver <= V1 && c >= numCodesV1) {
		d.failf("unknown error code %d", c)
		return
	}
	m.Code = c
	m.Text = d.str()
}

// --- framing ------------------------------------------------------------------

// AppendFrame encodes m as one untagged v2 frame appended to dst — the
// framing every pre-pipelining peer speaks.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	return appendFrameAt(dst, V2, 0, m)
}

// AppendCompat encodes m as one untagged frame at wire version ver (V1 or
// V2). Servers use it to answer an untagged request at the version the
// request arrived in.
func AppendCompat(dst []byte, ver uint8, m Message) ([]byte, error) {
	if ver != V1 && ver != V2 {
		return nil, fmt.Errorf("%w: no untagged framing at version %d", ErrMalformed, ver)
	}
	return appendFrameAt(dst, ver, 0, m)
}

// AppendTagged encodes m as one tagged frame at wire version ver (V3 or
// V4) carrying tag appended to dst. The receiver echoes the tag on the
// matching reply, which it encodes at the request's version.
func AppendTagged(dst []byte, ver uint8, tag uint32, m Message) ([]byte, error) {
	if ver < V3 || ver > Version {
		return nil, fmt.Errorf("%w: no tagged framing at version %d", ErrMalformed, ver)
	}
	return appendFrameAt(dst, ver, tag, m)
}

func appendFrameAt(dst []byte, ver uint8, tag uint32, m Message) ([]byte, error) {
	start := len(dst)
	var hlen int
	switch ver {
	case V1, V2:
		hlen = headerLen
		dst = append(dst, ver, uint8(m.Kind()), 0, 0, 0, 0)
	case V3, V4:
		hlen = taggedHeaderLen
		dst = append(dst, ver, uint8(m.Kind()),
			byte(tag>>24), byte(tag>>16), byte(tag>>8), byte(tag), 0, 0, 0, 0)
	default:
		return nil, fmt.Errorf("%w: cannot encode at version %d", ErrMalformed, ver)
	}
	body, err := m.encodePayload(dst, ver)
	if err != nil {
		return nil, err
	}
	dst = body
	plen := len(dst) - start - hlen
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	putU32(dst[start+hlen-4:], uint32(plen))
	return dst, nil
}

// DecodeFrame decodes the first frame in b, requiring untagged (v1/v2)
// framing — the strict request/response path. A tagged frame is an error
// here; pipelined endpoints use DecodeAny. Returns the message and the
// unconsumed remainder. All failures wrap ErrMalformed or ErrTooLarge; the
// decoder never panics and never allocates more than the declared (bounded)
// payload.
func DecodeFrame(b []byte) (Message, []byte, error) {
	m, ver, _, rest, err := DecodeAny(b)
	if err != nil {
		return nil, b, err
	}
	if ver >= V3 {
		return nil, b, fmt.Errorf("%w: tagged frame on untagged decode path", ErrMalformed)
	}
	return m, rest, nil
}

// DecodeAny decodes the first frame in b at any protocol version,
// returning the message, the frame's version, its tag (0 when untagged:
// ver < V3), and the unconsumed remainder.
func DecodeAny(b []byte) (m Message, ver uint8, tag uint32, rest []byte, err error) {
	if len(b) < headerLen {
		return nil, 0, 0, b, fmt.Errorf("%w: short header (%d bytes)", ErrMalformed, len(b))
	}
	ver = b[0]
	hlen := headerLen
	switch ver {
	case V1, V2:
	case V3, V4:
		hlen = taggedHeaderLen
		if len(b) < hlen {
			return nil, 0, 0, b, fmt.Errorf("%w: short tagged header (%d bytes)", ErrMalformed, len(b))
		}
		tag = u32(b[2:])
	default:
		return nil, 0, 0, b, fmt.Errorf("%w: version %d, want 1..%d", ErrMalformed, ver, Version)
	}
	kind := Kind(b[1])
	plen := int(u32(b[hlen-4:]))
	if plen > MaxPayload {
		return nil, 0, 0, b, fmt.Errorf("%w: declared payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	if len(b) < hlen+plen {
		return nil, 0, 0, b, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrMalformed, len(b)-hlen, plen)
	}
	m, err = decodeBody(kind, ver, b[hlen:hlen+plen])
	if err != nil {
		return nil, 0, 0, b, err
	}
	return m, ver, tag, b[hlen+plen:], nil
}

// decodeBody decodes one payload at the given frame version.
func decodeBody(kind Kind, ver uint8, payload []byte) (Message, error) {
	m := newMessage(kind)
	if m == nil {
		return nil, fmt.Errorf("%w: unknown kind 0x%02x", ErrMalformed, uint8(kind))
	}
	// The cursor reaches decodePayload through the Message interface, so
	// it cannot live on the stack; pooled, a frame costs its message and
	// nothing else.
	d := decPool.Get().(*dec)
	*d = dec{b: payload, ver: ver}
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

// ReadFrame reads exactly one untagged frame from r, using (and growing)
// scratch as the read buffer; it returns the message and the buffer for
// reuse. A clean EOF before any header byte is returned as io.EOF; every
// other failure is either a transport error from r or wraps
// ErrMalformed/ErrTooLarge. A tagged (v3) frame is an error on this path.
func ReadFrame(r io.Reader, scratch []byte) (Message, []byte, error) {
	m, ver, _, scratch, err := ReadAny(r, scratch)
	if err != nil {
		return nil, scratch, err
	}
	if ver >= V3 {
		return nil, scratch, fmt.Errorf("%w: tagged frame on untagged read path", ErrMalformed)
	}
	return m, scratch, nil
}

// ReadAny reads exactly one frame at any protocol version from r, using
// (and growing) scratch as the read buffer; it returns the message, the
// frame's version and tag (0 when untagged), and the buffer for reuse. A
// clean EOF before any header byte is returned as io.EOF.
func ReadAny(r io.Reader, scratch []byte) (Message, uint8, uint32, []byte, error) {
	if cap(scratch) < taggedHeaderLen {
		scratch = make([]byte, 0, 512)
	}
	hdr := scratch[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: header truncated", ErrMalformed)
		}
		return nil, 0, 0, scratch, err
	}
	ver := hdr[0]
	hlen := headerLen
	var tag uint32
	switch ver {
	case V1, V2:
	case V3, V4:
		hlen = taggedHeaderLen
		ext := scratch[headerLen:taggedHeaderLen]
		if _, err := io.ReadFull(r, ext); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("%w: tagged header truncated", ErrMalformed)
			}
			return nil, 0, 0, scratch, err
		}
		tag = u32(hdr[2:])
	default:
		return nil, 0, 0, scratch, fmt.Errorf("%w: version %d, want 1..%d", ErrMalformed, ver, Version)
	}
	plen := int(u32(scratch[hlen-4 : hlen]))
	if plen > MaxPayload {
		return nil, 0, 0, scratch, fmt.Errorf("%w: declared payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	need := hlen + plen
	if cap(scratch) < need {
		grown := make([]byte, need)
		copy(grown, scratch[:hlen])
		scratch = grown[:0]
	}
	buf := scratch[:need]
	if _, err := io.ReadFull(r, buf[hlen:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: payload truncated", ErrMalformed)
		}
		return nil, 0, 0, scratch, err
	}
	kind := Kind(buf[1])
	m, err := decodeBody(kind, ver, buf[hlen:need])
	if err != nil {
		return nil, 0, 0, scratch, err
	}
	return m, ver, tag, scratch, nil
}

// WriteFrame encodes m into scratch and writes the frame to w, returning
// the (possibly grown) buffer for reuse. Untagged v2 framing.
func WriteFrame(w io.Writer, scratch []byte, m Message) ([]byte, error) {
	buf, err := AppendFrame(scratch[:0], m)
	if err != nil {
		return scratch, err
	}
	if _, err := w.Write(buf); err != nil {
		return buf, err
	}
	return buf, nil
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
	ver uint8
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
