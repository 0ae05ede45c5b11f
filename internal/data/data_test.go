package data

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"adept2/internal/fault"
	"adept2/internal/model"
)

func TestStoreWriteReadVersions(t *testing.T) {
	s := NewStore()
	if _, ok := s.Read("d"); ok {
		t.Fatal("read of unwritten element must fail")
	}
	s.Write("d", int64(1), "a", 2)
	s.Write("d", int64(2), "b", 5)
	v, ok := s.Read("d")
	if !ok || v != int64(2) {
		t.Fatalf("Read = %v, %v", v, ok)
	}
	if !s.Has("d") || s.Has("x") {
		t.Fatal("Has broken")
	}
	if got := len(s.Versions("d")); got != 2 {
		t.Fatalf("versions = %d", got)
	}
	if got := s.Elements(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("elements = %v", got)
	}
}

func TestStoreReadAt(t *testing.T) {
	s := NewStore()
	s.Write("d", int64(1), "a", 2)
	s.Write("d", int64(2), "b", 5)
	if _, ok := s.ReadAt("d", 2); ok {
		t.Fatal("ReadAt before first write must fail")
	}
	if v, ok := s.ReadAt("d", 3); !ok || v != int64(1) {
		t.Fatalf("ReadAt(3) = %v, %v", v, ok)
	}
	if v, ok := s.ReadAt("d", 100); !ok || v != int64(2) {
		t.Fatalf("ReadAt(100) = %v, %v", v, ok)
	}
}

func TestStoreDropWritesBy(t *testing.T) {
	s := NewStore()
	s.Write("d", int64(1), "a", 2)
	s.Write("d", int64(2), "b", 5)
	s.Write("e", "x", "a", 7)
	s.DropWritesBy("a")
	if v, _ := s.Read("d"); v != int64(2) {
		t.Fatal("b's write should survive")
	}
	if s.Has("e") {
		t.Fatal("element with only a's writes should vanish")
	}
}

func TestStoreCloneAndJSON(t *testing.T) {
	s := NewStore()
	s.Write("d", "hello", "a", 1)
	c := s.Clone()
	c.Write("d", "bye", "b", 2)
	if v, _ := s.Read("d"); v != "hello" {
		t.Fatal("clone leaked")
	}
	if s.ApproxBytes() == 0 {
		t.Fatal("ApproxBytes zero")
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Store
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Read("d"); !ok || v != "hello" {
		t.Fatalf("round trip value = %v, %v", v, ok)
	}
	if err := json.Unmarshal([]byte("["), &back); err == nil {
		t.Fatal("expected error")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		val  any
		tp   model.DataType
		want any
		ok   bool
	}{
		{"x", model.TypeString, "x", true},
		{1, model.TypeString, nil, false},
		{true, model.TypeBool, true, true},
		{"t", model.TypeBool, nil, false},
		{int64(3), model.TypeInt, int64(3), true},
		{3, model.TypeInt, int64(3), true},
		{3.0, model.TypeInt, int64(3), true},
		{3.5, model.TypeInt, nil, false},
		{3.5, model.TypeFloat, 3.5, true},
		{3, model.TypeFloat, 3.0, true},
		{int64(4), model.TypeFloat, 4.0, true},
		{"x", model.TypeFloat, nil, false},
		// What the journal cannot carry: no JSON number, altered UTF-8.
		{math.NaN(), model.TypeFloat, nil, false},
		{math.Inf(1), model.TypeFloat, nil, false},
		{math.Inf(-1), model.TypeFloat, nil, false},
		{math.Inf(1), model.TypeInt, nil, false},
		{"bad\xff", model.TypeString, nil, false},
	}
	for _, c := range cases {
		got, err := Coerce(c.val, c.tp)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Coerce(%v, %s) = %v, %v; want %v", c.val, c.tp, got, err, c.want)
		}
		if !c.ok && fault.KindOf(err) != fault.Invalid {
			t.Errorf("Coerce(%v, %s) = %v, want a fault.Invalid error", c.val, c.tp, err)
		}
	}
}

func TestAsIntAsBool(t *testing.T) {
	if v, ok := AsInt(int64(7)); !ok || v != 7 {
		t.Fatal("AsInt int64")
	}
	if v, ok := AsInt(7); !ok || v != 7 {
		t.Fatal("AsInt int")
	}
	if v, ok := AsInt(7.0); !ok || v != 7 {
		t.Fatal("AsInt float")
	}
	if _, ok := AsInt(7.5); ok {
		t.Fatal("AsInt fractional")
	}
	if _, ok := AsInt("7"); ok {
		t.Fatal("AsInt string")
	}
	if v, ok := AsBool(true); !ok || !v {
		t.Fatal("AsBool")
	}
	if _, ok := AsBool(1); ok {
		t.Fatal("AsBool non-bool")
	}
}

func TestValuesSetGetClone(t *testing.T) {
	var vs Values
	for _, name := range []string{"m", "a", "z", "m"} {
		vs = vs.With(name, name+"!")
	}
	if len(vs) != 3 || vs[0].Name != "a" || vs[1].Name != "m" || vs[2].Name != "z" {
		t.Fatalf("With keeps one binding per name in name order, got %v", vs)
	}
	if v, ok := vs.Get("m"); !ok || v != "m!" {
		t.Fatalf("Get(m) = %v, %v", v, ok)
	}
	if _, ok := vs.Get("b"); ok {
		t.Fatal("Get of an unbound name")
	}
}

// TestJSONMatchesMapForm holds the two hand-written encoders of this
// package to what encoding/json writes for the maps they replaced — a
// Values set for map[string]any, a Store for map[string][]Version — and
// the decoders to what decoding those maps and re-encoding them gives:
// sorted keys, HTML-escaped strings, every JSON value type, encoding/json's
// float formats, a duplicate key resolved to its last occurrence.
func TestJSONMatchesMapForm(t *testing.T) {
	for _, m := range []map[string]any{
		{}, {"a": nil}, {"z": int64(1), "a": "x", "m": true},
		{"<k>&": "é \"\\", "f": 1e21, "g": 1e-7, "h": -0.0, "n": []any{1.0, "x", map[string]any{"k": false}}},
	} {
		var vs Values
		s := NewStore()
		versions := make(map[string][]Version)
		seq := 0
		for k, v := range m {
			vs = vs.With(k, v)
			for _, writer := range []string{"w<1>", k} {
				seq++
				s.Write(k, v, writer, seq)
				versions[k] = append(versions[k], Version{Value: v, Writer: writer, Seq: seq})
			}
		}
		for _, c := range []struct {
			name      string
			got, back any
			want      any
		}{
			{"Values", vs, new(Values), m},
			{"Store", s, new(Store), versions},
		} {
			want, _ := json.Marshal(c.want)
			got, err := json.Marshal(c.got)
			if err != nil || string(got) != string(want) {
				t.Errorf("%s of %v encodes as %s (%v), the map as %s", c.name, m, got, err, want)
			}
			// Decode into the slice form and into the map form: both
			// re-encode alike (numbers are float64 on both sides now).
			ref := reflect.New(reflect.TypeOf(c.want))
			if err := json.Unmarshal(want, c.back); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, ref.Interface()); err != nil {
				t.Fatal(err)
			}
			again, _ := json.Marshal(c.back)
			if wantAgain, _ := json.Marshal(ref.Interface()); string(again) != string(wantAgain) {
				t.Errorf("decoded %s re-encodes as %s, the decoded map as %s", c.name, again, wantAgain)
			}
		}
	}

	var vs Values
	if err := json.Unmarshal([]byte(`{"b":1,"a":2,"b":3}`), &vs); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(vs); string(got) != `{"a":2,"b":3}` {
		t.Errorf("duplicate and unsorted keys decode to %s", got)
	}
	if _, err := json.Marshal(Values{{Name: "nan", Value: math.NaN()}}); err == nil {
		t.Error("a NaN encodes")
	}
	var s Store
	if err := json.Unmarshal([]byte(`{"gone":[],"null":null,"kept":[{"value":1,"writer":"w","seq":2}]}`), &s); err != nil {
		t.Fatal(err)
	}
	if got := s.Elements(); len(got) != 1 || got[0] != "kept" {
		t.Errorf("an element without a version is no element, got %v", got)
	}
}
