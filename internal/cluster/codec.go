package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
)

// This file implements the hand-rolled binary wire codec for sampling
// rounds, the one format the cluster wire speaks. The format
// is specified in docs/architecture.md ("Binary wire format"); the golden
// test in codec_test.go pins the bytes so the format cannot drift
// silently between versions, and FuzzBinaryCodec exercises the round-trip
// over arbitrary rounds.
//
// Design, in one paragraph: a stream starts with a 4-byte magic+version;
// rounds travel in length-prefixed BATCH frames — a uvarint round count,
// then that many rounds back to back, one per frame unless the publisher
// batches (see BinaryWire.SetBatch). Strings (node and component
// names) are interned per stream — sent once, then referenced by dense
// id — and every numeric field is delta-encoded against the previous
// round of the same node, to second order (delta-of-delta, Gorilla's
// timestamp trick): a steady-state monitoring stream advances every field
// at a constant rate — sequence numbers by one, sampling instants by the
// interval, cumulative consumption counters by their per-round growth —
// so the residual after subtracting the previous round's delta is
// (near-)zero and its zigzag varint is one byte where the raw value costs
// eight. CPU seconds (a float64) are quantised to integer nanoseconds and
// ride the same double-delta chain whenever the quantisation is bit-exact
// — which it is for every duration-derived consumption figure — with a
// per-sample flag falling back to XOR-against-previous raw bits for
// floats outside the nanosecond grid, so the codec stays lossless over
// the full float64 domain. A steady-state round of N samples costs
// roughly 4 + 7·N bytes on the wire, and both encoder and decoder reuse
// their buffers, so neither end allocates at steady state. That is the
// point of a hand-rolled codec: the monitor ships a round every sampling
// interval from every node, so its wire must not itself load the system
// it watches.
//
// The codec deliberately trades generality for density: sampling
// instants must be within the int64-nanosecond Unix range (years
// 1678–2262; monitoring timestamps always are), and decoded times carry
// the UTC location. Verdicts are unaffected — the aggregator consumes
// instants, not locations — and TestClusterTransportParity holds the
// binary wire and the in-process transport to byte-identical verdicts.

// wireMagic opens every binary round stream: three identifying bytes and
// one format version byte. Bump the version on any incompatible change;
// the decoder refuses streams it does not speak so cross-version nodes
// fail loudly at connect time, not subtly at fold time.
//
// Version history: 1 — initial first-order delta/XOR format; 2 — all
// integer chains move to second-order deltas (delta-of-delta), and CPU
// seconds ride the same chain as zigzag-encoded nanosecond residuals when
// the quantisation is bit-exact (flagCPUNanos), falling back to the XOR'd
// raw bits otherwise; 3 — samples carry the live handle count (a
// double-delta int64 chain) and cumulative latency seconds (quantised
// nanoseconds under flagLatNanos, XOR fallback otherwise, exactly the CPU
// scheme) for the non-heap aging indicators; 4 — every frame is a BATCH
// frame: the payload opens with a uvarint round count and carries that
// many encoded rounds back to back, so a publisher flushing every K
// rounds amortises the frame prefix and the peer's read across the batch
// at fleet fan-in (an unbatched publisher ships batches of one); 5 —
// every frame payload opens with a one-byte frame type discriminating
// BATCH round frames from the CONTROL command/ack frames of the actuation
// plane (control.go), which makes the stream bidirectional: rounds and
// acks flow node→aggregator, drain/rejuvenate/re-admit commands flow
// aggregator→node on the same connection; 6 — adds the SNAPSHOT frame
// kind (standby.go): an active aggregator periodically ships its (and
// its rejuvenation controller's) durable-state snapshot to a warm
// standby, which can be promoted mid-epoch when the active dies.
// SNAPSHOT frames travel only on dedicated standby connections, never on
// node round streams.
var wireMagic = [4]byte{'A', 'G', 'M', 6}

// Frame types: the first byte of every v6 frame payload.
const (
	// frameBatch carries sampling rounds (uvarint count + rounds).
	frameBatch = 0x00
	// frameControl carries one actuation command (aggregator → node).
	frameControl = 0x01
	// frameControlAck carries one command acknowledgement (node →
	// aggregator).
	frameControlAck = 0x02
	// frameSnapshot carries one durable-state snapshot (active
	// aggregator → warm standby; see standby.go).
	frameSnapshot = 0x03
)

// prevSample is the per-component delta-encoding state: the previous
// round's values for one component on one node, plus the previous deltas
// the second-order encoding subtracts.
type prevSample struct {
	size     int64
	usage    int64
	threads  int64
	handles  int64
	delta    int64
	cpuBits  uint64
	cpuNanos int64
	latBits  uint64
	latNanos int64

	dSize     int64
	dUsage    int64
	dThreads  int64
	dHandles  int64
	dDelta    int64
	dCPUNanos int64
	dLatNanos int64
}

// step advances one double-delta chain: given the new value, it returns
// the second-order residual to encode and updates value and delta state.
// The decoder runs the inverse (unstep). Overflow wraps identically on
// both ends, so the chain stays lossless over the full int64 domain.
func step(value, delta *int64, v int64) int64 {
	d := v - *value
	res := d - *delta
	*value, *delta = v, d
	return res
}

// unstep is step's decoding inverse: it folds a received residual into
// the chain and returns the reconstructed value.
func unstep(value, delta *int64, res int64) int64 {
	*delta += res
	*value += *delta
	return *value
}

// cpuNanosBound bounds the quantisable CPU range: beyond it v*1e9 cannot
// be held in an int64 (≈292 years of CPU time, far past any monitoring
// horizon — such values take the raw-bits fallback).
const cpuNanosBound = 9.0e18

const nanosPerSecond = int64(1e9)

// cpuFromNanos reconstructs CPU seconds from integer nanoseconds with
// exactly time.Duration.Seconds' arithmetic (split at the second, divide
// the remainder) — the computation every live consumption figure was
// born from, so quantise-then-reconstruct reproduces the original float
// bit for bit.
func cpuFromNanos(n int64) float64 {
	return float64(n/nanosPerSecond) + float64(n%nanosPerSecond)/1e9
}

// cpuNanos quantises CPU seconds to integer nanoseconds, reporting
// whether the round trip is bit-exact. Real consumption figures are
// duration-derived (Duration.Seconds), so the check passes for
// essentially every live sample and the mantissa-dense XOR fallback is
// reserved for adversarial inputs (fuzzing, hand-built rounds). Both
// codec ends derive the delta state through this same function, so a
// fallback sample never desynchronises the nanosecond chain.
func cpuNanos(v float64) (int64, bool) {
	scaled := v * 1e9
	if !(scaled > -cpuNanosBound && scaled < cpuNanosBound) { // NaN and ±Inf fail too
		return 0, false
	}
	n := int64(math.Round(scaled))
	if math.Float64bits(cpuFromNanos(n)) != math.Float64bits(v) {
		return 0, false
	}
	return n, true
}

// nodeCodecState is one node's delta-encoding state on a stream. One
// connection may multiplex several nodes' forwarders, so the state is
// keyed by interned node id on both ends.
type nodeCodecState struct {
	prevSeq  int64
	prevTime int64
	dSeq     int64
	dTime    int64
	prev     map[uint32]*prevSample // interned component id -> last values
}

func newNodeCodecState() *nodeCodecState {
	return &nodeCodecState{prev: make(map[uint32]*prevSample)}
}

// sample flag bits.
const (
	flagSizeOK   = 1 << 0
	flagCPUNanos = 1 << 1 // CPU field is a zigzag nanosecond delta, not XOR'd bits
	flagLatNanos = 1 << 2 // latency field is a zigzag nanosecond delta, not XOR'd bits
)

// BinaryEncoder encodes rounds into the binary wire format. It owns the
// stream-level interning and delta state, so one encoder serves exactly
// one stream; the batch buffer is reused across frames. Not safe for
// concurrent use (the BinaryWire transport serialises on its publish
// mutex).
//
// Rounds accumulate with BufferRound and leave as one BATCH frame on
// FlushFrame; AppendRound is the unbatched shorthand (buffer one round,
// flush immediately — a batch of one). Buffering encodes eagerly: the
// round's borrowed Samples are consumed before BufferRound returns, so
// the publisher's borrow contract holds however long the batch lingers.
type BinaryEncoder struct {
	started bool
	names   map[string]uint32
	nodes   map[uint32]*nodeCodecState
	batch   []byte // encoded rounds of the pending frame
	pending int    // rounds in batch
}

// NewBinaryEncoder creates an encoder for one fresh stream.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{
		names: make(map[string]uint32),
		nodes: make(map[uint32]*nodeCodecState),
	}
}

// appendUvarint/appendZigzag are the primitive writers.
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// appendString writes a string reference: uvarint(id+1) for an interned
// name, or 0 followed by the raw bytes for a first sighting (which
// implicitly assigns the next dense id on both ends).
func (e *BinaryEncoder) appendString(dst []byte, s string) ([]byte, uint32) {
	if id, ok := e.names[s]; ok {
		return appendUvarint(dst, uint64(id)+1), id
	}
	id := uint32(len(e.names))
	e.names[s] = id
	dst = appendUvarint(dst, 0)
	dst = appendUvarint(dst, uint64(len(s)))
	dst = append(dst, s...)
	return dst, id
}

// AppendRound appends one single-round frame (preceded by the stream
// header on the first call) to dst and returns the extended slice — the
// unbatched path, equivalent to BufferRound followed by FlushFrame.
func (e *BinaryEncoder) AppendRound(dst []byte, r Round) []byte {
	e.BufferRound(r)
	return e.FlushFrame(dst)
}

// PendingRounds reports how many buffered rounds the next FlushFrame
// will ship.
func (e *BinaryEncoder) PendingRounds() int { return e.pending }

// BufferRound encodes one round onto the pending BATCH frame. The
// round's Samples are fully consumed before it returns.
func (e *BinaryEncoder) BufferRound(r Round) {
	p := e.batch
	var nodeID uint32
	p, nodeID = e.appendString(p, r.Node)
	st := e.nodes[nodeID]
	if st == nil {
		st = newNodeCodecState()
		e.nodes[nodeID] = st
	}
	p = appendZigzag(p, step(&st.prevSeq, &st.dSeq, r.Seq))
	p = appendZigzag(p, step(&st.prevTime, &st.dTime, r.Time.UnixNano()))
	p = appendUvarint(p, uint64(len(r.Samples)))
	for _, s := range r.Samples {
		var compID uint32
		p, compID = e.appendString(p, s.Component)
		prev := st.prev[compID]
		if prev == nil {
			prev = &prevSample{}
			st.prev[compID] = prev
		}
		var flags byte
		if s.SizeOK {
			flags |= flagSizeOK
		}
		nanos, quantised := cpuNanos(s.CPUSeconds)
		if quantised {
			flags |= flagCPUNanos
		}
		latN, latQuantised := cpuNanos(s.LatencySeconds)
		if latQuantised {
			flags |= flagLatNanos
		}
		p = append(p, flags)
		p = appendZigzag(p, step(&prev.size, &prev.dSize, s.Size))
		p = appendZigzag(p, step(&prev.usage, &prev.dUsage, s.Usage))
		p = appendZigzag(p, step(&prev.threads, &prev.dThreads, s.Threads))
		p = appendZigzag(p, step(&prev.handles, &prev.dHandles, s.Handles))
		p = appendZigzag(p, step(&prev.delta, &prev.dDelta, s.Delta))
		cpuBits := math.Float64bits(s.CPUSeconds)
		if quantised {
			// Steady-state CPU advances by a near-constant per-round
			// nanosecond delta: the second-order residual is a one-byte
			// zigzag where the XOR of two entropy-dense mantissas costs
			// 8-10 bytes.
			p = appendZigzag(p, step(&prev.cpuNanos, &prev.dCPUNanos, nanos))
		} else {
			p = appendUvarint(p, cpuBits^prev.cpuBits)
			// Reset the nanosecond chain at the (identically derived)
			// fallback base so a later quantised sample deltas against the
			// same state on both ends.
			prev.cpuNanos, _ = cpuNanos(s.CPUSeconds)
			prev.dCPUNanos = 0
		}
		prev.cpuBits = cpuBits
		latBits := math.Float64bits(s.LatencySeconds)
		if latQuantised {
			p = appendZigzag(p, step(&prev.latNanos, &prev.dLatNanos, latN))
		} else {
			p = appendUvarint(p, latBits^prev.latBits)
			prev.latNanos, _ = cpuNanos(s.LatencySeconds)
			prev.dLatNanos = 0
		}
		prev.latBits = latBits
	}
	e.batch = p
	e.pending++
}

// FlushFrame appends the pending BATCH frame — frame-type byte, uvarint
// round count, then the buffered rounds back to back, the whole payload
// length-prefixed and preceded by the stream header on the first flush —
// to dst and returns the extended slice. With nothing buffered it returns
// dst unchanged (no empty frames on the wire). The batch buffer is reused
// by subsequent rounds.
func (e *BinaryEncoder) FlushFrame(dst []byte) []byte {
	if e.pending == 0 {
		return dst
	}
	if !e.started {
		dst = append(dst, wireMagic[:]...)
		e.started = true
	}
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], uint64(e.pending))
	dst = appendUvarint(dst, uint64(1+cn+len(e.batch)))
	dst = append(dst, frameBatch)
	dst = append(dst, cnt[:cn]...)
	dst = append(dst, e.batch...)
	e.batch = e.batch[:0]
	e.pending = 0
	return dst
}

// byteParser is a bounds-checked cursor over one frame payload.
type byteParser struct {
	b []byte
	i int
}

func (p *byteParser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated uvarint at offset %d", p.i)
	}
	p.i += n
	return v, nil
}

func (p *byteParser) zigzag() (int64, error) {
	v, n := binary.Varint(p.b[p.i:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated varint at offset %d", p.i)
	}
	p.i += n
	return v, nil
}

func (p *byteParser) byte() (byte, error) {
	if p.i >= len(p.b) {
		return 0, fmt.Errorf("cluster: truncated frame at offset %d", p.i)
	}
	b := p.b[p.i]
	p.i++
	return b, nil
}

func (p *byteParser) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(p.b)-p.i) {
		return nil, fmt.Errorf("cluster: string of %d bytes overruns frame", n)
	}
	out := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return out, nil
}

// BinaryDecoder decodes frames produced by a BinaryEncoder over one
// stream. The returned Round's Samples slice is owned by the decoder and
// valid until the next Decode — exactly the borrow contract
// Aggregator.Ingest honours by copying what it retains. Not safe for
// concurrent use.
type BinaryDecoder struct {
	names   []string
	nodes   map[uint32]*nodeCodecState
	samples []core.ComponentSample
}

// NewBinaryDecoder creates a decoder for one fresh stream.
func NewBinaryDecoder() *BinaryDecoder {
	return &BinaryDecoder{nodes: make(map[uint32]*nodeCodecState)}
}

// readString resolves a string reference, interning first sightings.
func (d *BinaryDecoder) readString(p *byteParser) (string, uint32, error) {
	ref, err := p.uvarint()
	if err != nil {
		return "", 0, err
	}
	if ref == 0 {
		n, err := p.uvarint()
		if err != nil {
			return "", 0, err
		}
		raw, err := p.bytes(n)
		if err != nil {
			return "", 0, err
		}
		id := uint32(len(d.names))
		d.names = append(d.names, string(raw))
		return d.names[id], id, nil
	}
	id := ref - 1
	if id >= uint64(len(d.names)) {
		return "", 0, fmt.Errorf("cluster: dangling string reference %d", id)
	}
	return d.names[id], uint32(id), nil
}

// DecodeFrame decodes one frame payload (without its length prefix)
// carrying exactly one round — the unbatched shorthand for DecodeBatch,
// for peers that flush every round. The result's Samples slice is reused
// by the next decode.
func (d *BinaryDecoder) DecodeFrame(payload []byte) (Round, error) {
	var out Round
	got := false
	err := d.DecodeBatch(payload, func(r Round) error {
		if got {
			return fmt.Errorf("cluster: BATCH frame carries several rounds; decode with DecodeBatch")
		}
		out, got = r, true
		return nil
	})
	if err == nil && !got {
		err = fmt.Errorf("cluster: empty BATCH frame")
	}
	return out, err
}

// DecodeBatch decodes one BATCH frame payload (without its length
// prefix, including its leading frame-type byte), calling emit once per
// round in publish order. Each round's Samples slice is the decoder's
// reused buffer, valid only until emit returns — exactly the borrow
// contract Aggregator.Ingest honours by copying what it retains. A
// non-nil error from emit aborts the batch.
func (d *BinaryDecoder) DecodeBatch(payload []byte, emit func(Round) error) error {
	if len(payload) == 0 {
		return fmt.Errorf("cluster: empty frame")
	}
	if payload[0] != frameBatch {
		return fmt.Errorf("cluster: frame type %d is not a BATCH frame", payload[0])
	}
	p := &byteParser{b: payload, i: 1}
	count, err := p.uvarint()
	if err != nil {
		return err
	}
	if count == 0 || count > uint64(len(payload)) {
		// Empty batches are never sent, and a round costs well over one
		// byte: either way the count is corruption, not a big batch.
		return fmt.Errorf("cluster: BATCH round count %d is corrupt for a %d-byte frame", count, len(payload))
	}
	for i := uint64(0); i < count; i++ {
		r, err := d.decodeRound(p)
		if err != nil {
			return err
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	if p.i != len(payload) {
		return fmt.Errorf("cluster: %d trailing bytes in frame", len(payload)-p.i)
	}
	return nil
}

// decodeRound decodes one round at the parser's cursor. The round's
// Samples slice is reused by the next call.
func (d *BinaryDecoder) decodeRound(p *byteParser) (Round, error) {
	var r Round
	node, nodeID, err := d.readString(p)
	if err != nil {
		return r, err
	}
	r.Node = node
	st := d.nodes[nodeID]
	if st == nil {
		st = newNodeCodecState()
		d.nodes[nodeID] = st
	}
	dseq, err := p.zigzag()
	if err != nil {
		return r, err
	}
	r.Seq = unstep(&st.prevSeq, &st.dSeq, dseq)
	dt, err := p.zigzag()
	if err != nil {
		return r, err
	}
	r.Time = time.Unix(0, unstep(&st.prevTime, &st.dTime, dt)).UTC()
	n, err := p.uvarint()
	if err != nil {
		return r, err
	}
	if n > uint64(len(p.b)-p.i) {
		// Each sample needs at least a handful of bytes; a count larger
		// than the frame's remaining bytes is corruption, not a big round.
		return r, fmt.Errorf("cluster: sample count %d exceeds frame size", n)
	}
	samples := d.samples[:0]
	for i := uint64(0); i < n; i++ {
		comp, compID, err := d.readString(p)
		if err != nil {
			return r, err
		}
		prev := st.prev[compID]
		if prev == nil {
			prev = &prevSample{}
			st.prev[compID] = prev
		}
		flags, err := p.byte()
		if err != nil {
			return r, err
		}
		ds, err := p.zigzag()
		if err != nil {
			return r, err
		}
		du, err := p.zigzag()
		if err != nil {
			return r, err
		}
		dth, err := p.zigzag()
		if err != nil {
			return r, err
		}
		dh, err := p.zigzag()
		if err != nil {
			return r, err
		}
		dd, err := p.zigzag()
		if err != nil {
			return r, err
		}
		var cpu float64
		if flags&flagCPUNanos != 0 {
			dn, err := p.zigzag()
			if err != nil {
				return r, err
			}
			cpu = cpuFromNanos(unstep(&prev.cpuNanos, &prev.dCPUNanos, dn))
			prev.cpuBits = math.Float64bits(cpu)
		} else {
			cpuXor, err := p.uvarint()
			if err != nil {
				return r, err
			}
			prev.cpuBits ^= cpuXor
			cpu = math.Float64frombits(prev.cpuBits)
			// Mirror the encoder's state transition so a later quantised
			// sample deltas against the same nanosecond base on both ends.
			prev.cpuNanos, _ = cpuNanos(cpu)
			prev.dCPUNanos = 0
		}
		var lat float64
		if flags&flagLatNanos != 0 {
			dn, err := p.zigzag()
			if err != nil {
				return r, err
			}
			lat = cpuFromNanos(unstep(&prev.latNanos, &prev.dLatNanos, dn))
			prev.latBits = math.Float64bits(lat)
		} else {
			latXor, err := p.uvarint()
			if err != nil {
				return r, err
			}
			prev.latBits ^= latXor
			lat = math.Float64frombits(prev.latBits)
			prev.latNanos, _ = cpuNanos(lat)
			prev.dLatNanos = 0
		}
		samples = append(samples, core.ComponentSample{
			Component:      comp,
			Size:           unstep(&prev.size, &prev.dSize, ds),
			SizeOK:         flags&flagSizeOK != 0,
			Usage:          unstep(&prev.usage, &prev.dUsage, du),
			CPUSeconds:     cpu,
			Threads:        unstep(&prev.threads, &prev.dThreads, dth),
			Handles:        unstep(&prev.handles, &prev.dHandles, dh),
			LatencySeconds: lat,
			Delta:          unstep(&prev.delta, &prev.dDelta, dd),
		})
	}
	d.samples = samples
	r.Samples = samples
	return r, nil
}
