package history

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"adept2/internal/data"
)

// Symbols is the string table the logs of one engine share (package
// documentation). It only grows; symbol 0 is the empty string. Both
// directions are read without a lock: a decoder holds the names slice it
// loaded, and an intern appends behind that slice's length and publishes a
// new header, so a loaded slice is never written where it can be read; an
// append looks its strings up in read, an immutable copy of ids replaced
// once as many lookups have missed it as it has entries — the misses pay
// for the copy, and a new, hot symbol takes the mutex a bounded number of
// times. Lookup reads read alone, without the mutex and without counting a
// miss, so a decoder resolves a name to the table's own string from any
// goroutine; a name newer than the published copy reads as absent.
type Symbols struct {
	names atomic.Pointer[[]string]
	read  atomic.Pointer[map[string]uint32]

	mu     sync.Mutex
	ids    map[string]uint32 // every symbol but 0
	misses int               // lookups read did not answer since it was published
}

// NewSymbols returns a table that holds only the empty string.
func NewSymbols() *Symbols {
	t := &Symbols{ids: make(map[string]uint32)}
	t.names.Store(&[]string{""})
	return t
}

// NewLog returns an empty history whose records draw on the table.
func (t *Symbols) NewLog() *Log { return &Log{syms: t} }

// intern returns the symbol of s, storing a copy when s is new: s may be
// a window of a request buffer, and storing s would make it escape, and
// with it the event Append reads it from.
func (t *Symbols) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if m := t.read.Load(); m != nil {
		if sym, ok := (*m)[s]; ok {
			return sym
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sym, ok := t.ids[s]
	if !ok {
		own := strings.Clone(s)
		names := append(*t.names.Load(), own)
		sym = uint32(len(names) - 1)
		t.ids[own] = sym
		t.names.Store(&names)
	}
	if t.misses++; t.misses >= len(t.ids) {
		m := maps.Clone(t.ids)
		t.read.Store(&m)
		t.misses = 0
	}
	return sym
}

// Lookup returns the table's own copy of the name b spells, if the
// published read map holds it. It takes no lock and counts no miss.
func (t *Symbols) Lookup(b []byte) (string, bool) {
	m := t.read.Load()
	if m == nil {
		return "", false
	}
	sym, ok := (*m)[string(b)]
	if !ok {
		return "", false
	}
	return (*t.names.Load())[sym], true // names was published before the map that holds sym
}

// The bits of a record's flags byte; the package documentation has the
// record layout.
const (
	flagKind     = 0x03
	flagAgain    = 0x04
	flagUser     = 0x08
	flagAt       = 0x10
	flagDecision = 0x20
	flagValues   = 0x40
	flagRare     = 0x80
)

// Log is an append-only execution history: one packed record per event
// and, beside them, the value sets of all events in event order. Sequence
// numbers are positions: the i-th record is the event with Seq i+1. The
// zero Log is empty and ready; a log not made by Symbols.NewLog gets a
// table of its own with its first event.
type Log struct {
	buf  []byte
	vals []data.Binding
	syms *Symbols
	at   int64 // At of the last stamped event: what the next delta counts from
	n    int32
}

// NewLog returns an empty history with a table of its own.
func NewLog() *Log { return &Log{} }

// minLogBytes is the first capacity of a log's records: room for the four
// to six events an instance records before its first user command returns.
const minLogBytes = 32

// ReserveBindings gives a log that holds no binding yet a list with room
// for n. The engine passes its view's data-edge count: a run of an
// activity binds one value per data edge.
func (l *Log) ReserveBindings(n int) {
	if cap(l.vals) == 0 && n > 0 {
		l.vals = make([]data.Binding, 0, n)
	}
}

// Append adds a copy of the event, assigning it the next sequence number,
// and returns e. The log keeps e's strings by symbol and its bindings in
// its own list, so e and its Values may live on the caller's stack; the
// list grows by doubling from where ReserveBindings sized it.
func (l *Log) Append(e *Event) *Event {
	if l.syms == nil {
		l.syms = NewSymbols()
	}
	l.n++
	e.Seq = l.n
	b := l.buf
	if cap(b) == 0 {
		b = make([]byte, 0, minLogBytes)
	}
	flags := len(b) // where the flags byte is: each member written sets its bit
	b = append(b, byte(e.Kind)&flagKind)
	if e.Again {
		b[flags] |= flagAgain
	}
	rare := e.Kind > Timeout || e.Reason != ""
	if rare {
		b[flags] |= flagRare
		b = append(b, byte(e.Kind))
	}
	b = binary.AppendUvarint(b, uint64(l.syms.intern(e.Node)))
	if user := l.syms.intern(e.User); user != 0 {
		b[flags] |= flagUser
		b = binary.AppendUvarint(b, uint64(user))
	}
	if e.At != 0 {
		b[flags] |= flagAt
		b = binary.AppendVarint(b, e.At-l.at)
		l.at = e.At
	}
	if e.Decision != -1 {
		b[flags] |= flagDecision
		b = binary.AppendVarint(b, int64(e.Decision))
	}
	if rare {
		b = append(binary.AppendUvarint(b, uint64(len(e.Reason))), e.Reason...)
	}
	if k := len(e.Values); k > 0 {
		b[flags] |= flagValues
		b = binary.AppendUvarint(b, uint64(k))
		l.vals = append(l.vals, e.Values...)
	}
	l.buf = b
	return e
}

// Len returns the number of events.
func (l *Log) Len() int { return int(l.n) }

// Clone returns a copy that shares nothing a later Append on either side
// could reach (values are immutable scalars; the table is shared).
func (l *Log) Clone() *Log {
	c := *l
	c.buf = append(make([]byte, 0, len(l.buf)), l.buf...)
	c.vals = append(make([]data.Binding, 0, len(l.vals)), l.vals...)
	return &c
}

// In returns the log with its symbols drawn from t: l itself when they
// already are, else a copy appended event by event. An engine takes a
// decoded history in this way (RestoreInstance).
func (l *Log) In(t *Symbols) *Log {
	if l.syms == t {
		return l
	}
	out := &Log{syms: t, buf: make([]byte, 0, liveCap(len(l.buf))), vals: make([]data.Binding, 0, len(l.vals))}
	var e Event
	for c := l.Events(); c.Next(&e); {
		out.Append(&e)
	}
	return out
}

// liveCap returns the capacity a log's records have when a run of Appends
// has made them n bytes long: they start at minLogBytes and grow as append
// grows them. A copy of a log gets it, so that a restored instance holds
// what the live one held.
func liveCap(n int) int {
	c := minLogBytes
	for c < n {
		if c < 256 {
			c *= 2 // append doubles a small slice, to a size class
		} else {
			c = cap(append(make([]byte, c), 0))
		}
	}
	return c
}

// ShareBindings calls share on each of the log's bindings with the event
// that holds it; share may replace the binding's name or value by an equal
// one. A restore draws them from the schema and the data store this way
// (engine.RestoreInstance).
func (l *Log) ShareBindings(share func(e *Event, b *data.Binding)) {
	var e Event
	i := 0
	for c := l.Events(); c.Next(&e); {
		for range e.Values {
			share(&e, &l.vals[i])
			i++
		}
	}
}

// ApproxBytes returns the memory the history holds beside the Log value
// itself (an instance embeds it): its records and bindings by the
// capacities allocated, which append leaves at the allocator's size
// classes, and the box and the bytes of every value. The strings belong to
// the table, once per engine.
func (l *Log) ApproxBytes() int { return cap(l.buf) + data.Values(l.vals).ApproxBytes() }

// Events returns a cursor at the first event.
func (l *Log) Events() Cursor {
	c := Cursor{log: l}
	if l.syms != nil {
		c.names = *l.syms.names.Load()
	}
	return c
}

// Cursor reads a log's events in order into events the caller owns. It is
// a value: copying one forks the position. A cursor stays valid across
// appends to its log and reads what they added; it must not be used while
// another goroutine appends.
type Cursor struct {
	log   *Log
	names []string // the table as Events loaded it, reloaded when a symbol lies past it
	off   int      // of the next record in log.buf
	val   int      // of the next binding in log.vals
	at    int64    // of the last stamped event read
	seq   int32    // of the last event read
}

// Next decodes the next event into e, overwriting every field, and reports
// whether there was one. e.Values aliases the log's own bindings, capped,
// so adding a name to it copies; the bindings themselves must not be
// written. The records are this package's own: a malformed one is a bug
// and panics on an index.
func (c *Cursor) Next(e *Event) bool {
	l := c.log
	if c.seq >= l.n {
		return false
	}
	c.seq++
	b, i := l.buf, c.off+1
	flags := b[c.off]
	// Field by field: assigning a whole Event is a call into the runtime.
	e.Seq, e.Kind, e.Again = c.seq, Kind(flags&flagKind), flags&flagAgain != 0
	if flags&flagRare != 0 {
		e.Kind = Kind(b[i])
		i++
	}
	v, i := uvarintRest(b, i+1, uint64(b[i]))
	e.Node = c.name(v)
	e.User = ""
	if flags&flagUser != 0 {
		v, i = uvarintRest(b, i+1, uint64(b[i]))
		e.User = c.name(v)
	}
	e.At = 0
	if flags&flagAt != 0 {
		v, i = uvarintRest(b, i+1, uint64(b[i]))
		c.at += int64(v>>1) ^ -int64(v&1)
		e.At = c.at
	}
	e.Decision = -1
	if flags&flagDecision != 0 {
		v, i = uvarintRest(b, i+1, uint64(b[i]))
		e.Decision = int32(int64(v>>1) ^ -int64(v&1))
	}
	e.Reason = ""
	if flags&flagRare != 0 {
		v, i = uvarintRest(b, i+1, uint64(b[i]))
		e.Reason = string(b[i : i+int(v)])
		i += int(v)
	}
	e.Values = nil
	if flags&flagValues != 0 {
		v, i = uvarintRest(b, i+1, uint64(b[i]))
		end := c.val + int(v)
		e.Values = l.vals[c.val:end:end]
		c.val = end
	}
	c.off = i
	return true
}

func (c *Cursor) name(sym uint64) string {
	if sym >= uint64(len(c.names)) {
		c.names = *c.log.syms.names.Load()
	}
	return c.names[sym]
}

// uvarintRest finishes an unsigned varint whose first byte has been read:
// b[i:] holds the rest if first has its high bit set. It returns the value
// and the offset behind it.
func uvarintRest(b []byte, i int, first uint64) (uint64, int) {
	v := first & 0x7f
	for shift := 7; first >= 0x80; shift += 7 {
		first = uint64(b[i])
		i++
		v |= first & 0x7f << shift
	}
	return v, i
}

// Decode reads the events left into the Events buf[:cap(buf)] points to and
// returns them in order as buf[:n], regrown, with one block of new Events,
// if n is past its capacity. The pointers buf holds, behind its length
// too, are this call's scratch (package documentation, "Reading a log").
func (c Cursor) Decode(buf []*Event) []*Event {
	n := int(c.log.n - c.seq)
	out := buf[:cap(buf)]
	if len(out) < n {
		block := make([]Event, n-len(out))
		for i := range block {
			out = append(out, &block[i])
		}
	}
	out = out[:n]
	for i, e := range out {
		if e == nil { // the caller made buf with room and no events
			e = new(Event)
			out[i] = e
		}
		c.Next(e)
	}
	return out
}

// MarshalJSON implements json.Marshaler: the array of the events' objects.
func (l *Log) MarshalJSON() ([]byte, error) {
	if l.buf == nil {
		return []byte("null"), nil // as encoding/json writes a nil slice
	}
	b := make([]byte, 0, 64+96*l.Len())
	b = append(b, '[')
	var e Event
	for c := l.Events(); c.Next(&e); {
		if e.Seq > 1 {
			b = append(b, ',')
		}
		var err error
		if b, err = e.appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler. A log whose sequence numbers
// are not 1…n in order was not written by this package (Seq is the
// position; nothing ever removes an event) and is refused, not renumbered.
// The decoded log has a table of its own.
func (l *Log) UnmarshalJSON(b []byte) error {
	var wire []eventWire
	if err := json.Unmarshal(b, &wire); err != nil {
		return fmt.Errorf("history: unmarshal log: %w", err)
	}
	if wire == nil {
		*l = Log{} // JSON null, which is what a log never appended to marshals to
		return nil
	}
	out := Log{buf: make([]byte, 0, 8*len(wire))}
	var e Event
	for i := range wire {
		if int(wire[i].Seq) != i+1 {
			return fmt.Errorf("history: unmarshal log: event %d has sequence number %d, want %d", i, wire[i].Seq, i+1)
		}
		if err := wire[i].event(&e); err != nil {
			return err
		}
		out.Append(&e)
	}
	*l = out
	return nil
}
