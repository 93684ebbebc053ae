package rrbcast

import (
	"crypto/sha256"
	"fmt"

	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/rt"
	"github.com/bftcup/bftcup/internal/wire"
)

// ForwardCap bounds how many distinct copies of one content a process
// re-forwards. Unbounded path flooding is exponential; a small cap preserves
// f+1 disjoint-path delivery on the graphs the model admits while keeping the
// baseline runnable (the original protocol pays this same flooding cost).
const ForwardCap = 8

// Message is one broadcast in flight.
type Message struct {
	// Origin is the broadcasting process; Seq distinguishes its broadcasts.
	Origin model.ID
	Seq    uint64
	// Path lists the forwarders after the origin, in order (origin excluded).
	Path []model.ID
	// Payload is the broadcast content.
	Payload []byte
}

func (m *Message) encode() []byte {
	w := wire.NewWriter()
	w.Byte(wire.KindRRB)
	w.ID(m.Origin)
	w.Uvarint(m.Seq)
	w.IDSlice(m.Path)
	w.BytesField(m.Payload)
	return w.Bytes()
}

func decode(b []byte) (*Message, bool) {
	if len(b) < 2 || b[0] != wire.KindRRB {
		return nil, false
	}
	r := wire.NewReader(b[1:])
	m := &Message{Origin: r.ID(), Seq: r.Uvarint(), Path: r.IDSlice(), Payload: r.BytesField()}
	return m, r.Done() == nil
}

// contentKey identifies (origin, seq, payload-digest): paths are counted per
// CONTENT, so a Byzantine forwarder forging the payload only pollutes its own
// bucket.
type contentKey struct {
	origin model.ID
	seq    uint64
	digest [32]byte
}

func keyOf(m *Message) contentKey {
	return contentKey{origin: m.Origin, seq: m.Seq, digest: sha256.Sum256(m.Payload)}
}

// Module is the per-process broadcast state. Forwarding follows the
// process's (static) participant detector, as in the original protocol.
type Module struct {
	self      model.ID
	pd        model.IDSet
	f         int
	onDeliver func(origin model.ID, payload []byte)

	paths     map[contentKey][][]model.ID
	delivered map[contentKey]bool
	forwards  map[contentKey]int
}

// New creates a module. onDeliver fires exactly once per delivered content.
func New(self model.ID, pd model.IDSet, f int, onDeliver func(model.ID, []byte)) *Module {
	return &Module{
		self:      self,
		pd:        pd.Clone(),
		f:         f,
		onDeliver: onDeliver,
		paths:     make(map[contentKey][][]model.ID),
		delivered: make(map[contentKey]bool),
		forwards:  make(map[contentKey]int),
	}
}

// Broadcast sends payload to every process the sender knows; it is also
// delivered locally at once.
func (m *Module) Broadcast(ctx rt.Context, seq uint64, payload []byte) {
	msg := &Message{Origin: m.self, Seq: seq, Payload: payload}
	k := keyOf(msg)
	if !m.delivered[k] {
		m.delivered[k] = true
		if m.onDeliver != nil {
			m.onDeliver(m.self, payload)
		}
	}
	enc := msg.encode()
	for _, p := range m.pd.Sorted() {
		ctx.Send(p, enc)
	}
}

// Handle processes an incoming payload; it reports whether it was an RRB
// message.
func (m *Module) Handle(ctx rt.Context, from model.ID, payload []byte) bool {
	msg, ok := decode(payload)
	if !ok {
		return len(payload) > 0 && payload[0] == wire.KindRRB
	}
	// Sanity: the immediate sender must be the last forwarder (or the origin
	// itself). Anything else is a malformed or forged route.
	last := msg.Origin
	if len(msg.Path) > 0 {
		last = msg.Path[len(msg.Path)-1]
	}
	if last != from || msg.Origin == m.self {
		return true
	}
	// Drop cycles.
	if msg.Origin == m.self {
		return true
	}
	for _, v := range msg.Path {
		if v == m.self {
			return true
		}
	}
	k := keyOf(msg)
	full := append([]model.ID{msg.Origin}, msg.Path...)
	m.paths[k] = append(m.paths[k], full)
	if !m.delivered[k] && m.DisjointPathCount(k) > m.f {
		m.delivered[k] = true
		if m.onDeliver != nil {
			m.onDeliver(msg.Origin, msg.Payload)
		}
	}
	// Forward with ourselves appended, within the cap.
	if m.forwards[k] < ForwardCap {
		m.forwards[k]++
		fwd := &Message{Origin: msg.Origin, Seq: msg.Seq, Payload: msg.Payload,
			Path: append(append([]model.ID{}, msg.Path...), m.self)}
		enc := fwd.encode()
		for _, p := range m.pd.Sorted() {
			if p != from && p != msg.Origin && !contains(msg.Path, p) {
				ctx.Send(p, enc)
			}
		}
	}
	return true
}

func contains(ids []model.ID, id model.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// DisjointPathCount computes the maximum number of internally-node-disjoint
// origin→self routes among the copies collected for one content, via
// max-flow over the union of the recorded paths.
func (m *Module) DisjointPathCount(k contentKey) int {
	paths := m.paths[k]
	if len(paths) == 0 {
		return 0
	}
	g := graph.New()
	g.AddNode(k.origin)
	g.AddNode(m.self)
	for _, p := range paths {
		prev := p[0]
		for _, v := range p[1:] {
			g.AddEdge(prev, v)
			prev = v
		}
		g.AddEdge(prev, m.self)
	}
	return g.MaxNodeDisjointPaths(k.origin, m.self, m.f+1)
}

// Delivered reports whether content from origin with the given seq/payload
// was delivered.
func (m *Module) Delivered(origin model.ID, seq uint64, payload []byte) bool {
	return m.delivered[contentKey{origin: origin, seq: seq, digest: sha256.Sum256(payload)}]
}

// String summarizes the module for debugging.
func (m *Module) String() string {
	return fmt.Sprintf("rrbcast{self=%v f=%d contents=%d}", m.self, m.f, len(m.paths))
}
