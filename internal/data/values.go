package data

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"adept2/internal/jsonx"
)

// Binding is one named value of a Values set.
type Binding struct {
	Name  string
	Value any
}

// Values is a small set of named values — the parameter values an activity
// read, the element values it wrote — sorted by name, at most one binding
// per name. See the package documentation for why it is a slice.
type Values []Binding

// Get returns the value bound to name.
func (vs Values) Get(name string) (any, bool) {
	for i := range vs {
		if vs[i].Name == name {
			return vs[i].Value, true
		}
	}
	return nil, false
}

// With returns the set with name bound to value, replacing the name's
// previous binding. Like append it writes into the set's array while that
// has room, so an array on the caller's stack stays there.
func (vs Values) With(name string, value any) Values {
	i := 0
	for i < len(vs) && vs[i].Name < name {
		i++
	}
	if i < len(vs) && vs[i].Name == name {
		vs[i].Value = value
		return vs
	}
	return slices.Insert(vs, i, Binding{Name: name, Value: value})
}

// ApproxBytes returns the memory the set holds: its bindings by the
// capacity actually allocated, plus the box and the bytes of every value
// (names alias the schema's data edges).
func (vs Values) ApproxBytes() int {
	total := cap(vs) * int(unsafe.Sizeof(Binding{}))
	for i := range vs {
		total += valueBytes(vs[i].Value)
	}
	return total
}

// AppendJSON appends the set as a JSON object, byte for byte what
// encoding/json writes for the map[string]any with the same entries: keys
// in byte order, strings HTML-escaped. It fails where encoding/json does
// (a NaN, a value that is no JSON type).
func (vs Values) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	for i := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(jsonx.AppendString(b, vs[i].Name), ':')
		var err error
		if b, err = jsonx.AppendValue(b, vs[i].Value); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// MarshalJSON implements json.Marshaler.
func (vs Values) MarshalJSON() ([]byte, error) { return vs.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler. The object is decoded through
// a scratch map — seeded with the bindings already held, as encoding/json
// decodes into a map it finds — so a name that appears twice, in one object
// or across a repeated member, resolves as it does for a map: the last
// occurrence wins.
func (vs *Values) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if len(*vs) > 0 {
		m = make(map[string]any, len(*vs))
		for _, held := range *vs {
			m[held.Name] = held.Value
		}
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("data: unmarshal values: %w", err)
	}
	*vs = nil
	if len(m) == 0 {
		return nil
	}
	out := make(Values, 0, len(m))
	for name, value := range m {
		out = append(out, Binding{Name: name, Value: value})
	}
	slices.SortFunc(out, func(a, b Binding) int { return strings.Compare(a.Name, b.Name) })
	*vs = out
	return nil
}
