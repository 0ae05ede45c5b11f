// Package data implements the ADEPT2 data manager: versioned values of
// process data elements. Every write appends a new version tagged with the
// writing activity and event sequence, so reads are reproducible during
// compliance replay and the "missing data after activity deletion" problem
// is decidable from the version history.
//
// # Why the collections are slices
//
// An instance holds a handful of named values in three places: the
// elements of its Store, and the Values set of each history event that
// read parameters or wrote elements. An activity has one to three data
// edges, so these collections hold one to three entries, and there is one
// per instance and two per executed activity. A Go map is built for
// thousands of entries: its header and first group of eight slots are
// 336 B before it holds a value, which made these maps a third of what an
// instance cost. Values and the Store's element list are therefore slices
// sorted by name and probed linearly — 32 B and 40 B an entry, one
// allocation, no hashing, and an iteration order that is the name order on
// every run, so the JSON they write (keys sorted, as encoding/json sorts a
// map's) falls out of a plain walk and nothing downstream depends on map
// order. A linear probe over three strings is faster than hashing one;
// the representation would stop paying at a few dozen entries, which no
// activity's parameter list reaches.
package data

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"adept2/internal/fault"
	"adept2/internal/jsonx"
	"adept2/internal/model"
)

// Version is one write of a data element.
type Version struct {
	// Value is the written value (string, int64, bool, or float64).
	Value any `json:"value"`
	// Writer is the activity that wrote the value.
	Writer string `json:"writer"`
	// Seq is the event sequence number of the write.
	Seq int `json:"seq"`
}

// Store holds the versions of all data elements of one instance.
type Store struct {
	elems []element // sorted by id; every entry holds at least one version
}

type element struct {
	id       string
	versions []Version
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// find returns the position of the element, or the position it would be
// inserted at.
func (s *Store) find(elem string) (int, bool) {
	i := 0
	for i < len(s.elems) && s.elems[i].id < elem {
		i++
	}
	return i, i < len(s.elems) && s.elems[i].id == elem
}

// Write appends a version for the element.
func (s *Store) Write(elem string, value any, writer string, seq int) {
	v := Version{Value: value, Writer: writer, Seq: seq}
	i, ok := s.find(elem)
	if ok {
		s.elems[i].versions = append(s.elems[i].versions, v)
		return
	}
	s.elems = slices.Insert(s.elems, i, element{id: elem, versions: []Version{v}})
}

// Read returns the latest value of the element.
func (s *Store) Read(elem string) (any, bool) {
	vs := s.Versions(elem)
	if len(vs) == 0 {
		return nil, false
	}
	return vs[len(vs)-1].Value, true
}

// ReadAt returns the value the element held just before the given event
// sequence — the value an activity starting at seq observed. Compliance
// replay uses it to re-check data availability.
func (s *Store) ReadAt(elem string, seq int) (any, bool) {
	vs := s.Versions(elem)
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].Seq < seq {
			return vs[i].Value, true
		}
	}
	return nil, false
}

// Has reports whether the element has at least one version.
func (s *Store) Has(elem string) bool {
	_, ok := s.find(elem)
	return ok
}

// Versions returns the full version history of the element.
func (s *Store) Versions(elem string) []Version {
	if i, ok := s.find(elem); ok {
		return s.elems[i].versions
	}
	return nil
}

// Elements returns all element IDs with at least one version, sorted.
func (s *Store) Elements() []string {
	ids := make([]string, len(s.elems))
	for i := range s.elems {
		ids[i] = s.elems[i].id
	}
	return ids
}

// DropWritesBy removes all versions written by the given activity. The
// change framework calls it when an activity whose outputs were never
// consumed is deleted.
func (s *Store) DropWritesBy(writer string) {
	for i := range s.elems {
		s.elems[i].versions = slices.DeleteFunc(s.elems[i].versions, func(v Version) bool { return v.Writer == writer })
	}
	s.elems = slices.DeleteFunc(s.elems, func(e element) bool { return len(e.versions) == 0 })
}

// Share replaces the store's element IDs and writers by what canon
// returns for them. A store decoded from a snapshot holds copies of
// strings its schema already holds; a restore passes the schema's, so the
// recovered store keeps what a live one keeps.
func (s *Store) Share(canon func(string) string) {
	for i := range s.elems {
		e := &s.elems[i]
		e.id = canon(e.id)
		for j := range e.versions {
			e.versions[j].Writer = canon(e.versions[j].Writer)
		}
	}
}

// Held returns the value of a version of elem that equals v — the store's
// own box, and for a string its bytes — or v if no version does. A
// restore passes a history binding's decoded value through it, so the
// binding shares the value with the store as it does live.
func (s *Store) Held(elem string, v any) any {
	i, ok := s.find(elem)
	if !ok {
		return v
	}
	for _, ver := range s.elems[i].versions {
		switch ver.Value.(type) {
		case string, float64, int64, bool:
			if ver.Value == v {
				return ver.Value
			}
		}
	}
	return v
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := &Store{elems: slices.Clone(s.elems)}
	for i := range c.elems {
		c.elems[i].versions = slices.Clone(c.elems[i].versions)
	}
	return c
}

// ApproxBytes returns the memory the store holds: its own structures from
// their sizes and the capacities actually allocated, plus the box and the
// bytes of every stored value.
func (s *Store) ApproxBytes() int {
	total := int(unsafe.Sizeof(*s)) + cap(s.elems)*int(unsafe.Sizeof(element{}))
	for i := range s.elems {
		vs := s.elems[i].versions
		total += cap(vs) * int(unsafe.Sizeof(Version{}))
		for j := range vs {
			total += valueBytes(vs[j].Value)
		}
	}
	return total
}

// valueBytes is what a dynamic value costs beyond the interface word pair
// that holds it: a string's header and bytes, a number's box.
func valueBytes(v any) int {
	switch x := v.(type) {
	case string:
		return int(unsafe.Sizeof(x)) + len(x)
	case int64, float64, int:
		return 8
	}
	return 0
}

// MarshalJSON implements json.Marshaler: the object encoding/json writes
// for a map of element ID to version list, elements in byte order.
func (s *Store) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i := range s.elems {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(jsonx.AppendString(b, s.elems[i].id), ':', '[')
		for j, v := range s.elems[i].versions {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"value":`...)
			var err error
			if b, err = jsonx.AppendValue(b, v.Value); err != nil {
				return nil, err
			}
			b = append(b, `,"writer":`...)
			b = jsonx.AppendString(b, v.Writer)
			b = append(b, `,"seq":`...)
			b = append(strconv.AppendInt(b, int64(v.Seq), 10), '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler. An element listed without a
// version is no element and is dropped.
func (s *Store) UnmarshalJSON(b []byte) error {
	var m map[string][]Version // decode scratch
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("data: unmarshal store: %w", err)
	}
	// JSON numbers decode as float64; integers are re-normalized lazily by
	// Coerce at the call sites that care about the static type.
	s.elems = make([]element, 0, len(m))
	for id, vs := range m {
		if len(vs) > 0 {
			s.elems = append(s.elems, element{id: id, versions: vs})
		}
	}
	slices.SortFunc(s.elems, func(a, b element) int { return strings.Compare(a.id, b.id) })
	return nil
}

// Coerce converts a dynamic value to the element's declared type. It
// accepts the native Go type, the JSON decoding of it, and (for int/float)
// plain int values from call sites. It refuses what the journal cannot
// carry, as fault.Invalid like any value of the wrong type: a NaN or
// infinite float has no JSON encoding, and a string that is not valid
// UTF-8 would come back from the journal altered. A value of the declared
// type is returned in the caller's box, not boxed again.
func Coerce(value any, t model.DataType) (any, error) {
	switch t {
	case model.TypeString:
		if v, ok := value.(string); ok && utf8.ValidString(v) {
			return value, nil
		}
	case model.TypeBool:
		if _, ok := value.(bool); ok {
			return value, nil
		}
	case model.TypeInt:
		switch v := value.(type) {
		case int64:
			return value, nil
		case int:
			return int64(v), nil
		case float64:
			if v == float64(int64(v)) {
				return int64(v), nil
			}
		}
	case model.TypeFloat:
		switch v := value.(type) {
		case float64:
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				return value, nil
			}
		case int:
			return float64(v), nil
		case int64:
			return float64(v), nil
		}
	}
	return nil, fault.Tagf(fault.Invalid, "data: value %v (%T) is not assignable to %s", value, value, t)
}

// AsInt extracts an integer decision value (XOR split routing).
func AsInt(value any) (int, bool) {
	switch v := value.(type) {
	case int64:
		return int(v), true
	case int:
		return v, true
	case float64:
		if v == float64(int64(v)) {
			return int(v), true
		}
	}
	return 0, false
}

// AsBool extracts a boolean decision value (loop repetition).
func AsBool(value any) (bool, bool) {
	v, ok := value.(bool)
	return v, ok
}
