package jsonx

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

var testKeys = []string{"op", "args", "at", "ok"}

// TestMembers: what is plain is split, what is not is refused, and
// neither costs an allocation.
func TestMembers(t *testing.T) {
	for _, c := range []struct {
		in    string
		plain bool
		want  [4]string
	}{
		{`{}`, true, [4]string{}},
		{` { } `, true, [4]string{}},
		{`{"op":"start","args":{"a":[1,{"b":"}]\""}]},"at":-12,"ok":true}`, true,
			[4]string{`"start"`, `{"a":[1,{"b":"}]\""}]}`, `-12`, `true`}},
		{"\t{ \"at\" : 1e3 ,\r\n \"op\" : null } \n", true, [4]string{`null`, ``, `1e3`, ``}},
		{`{"args":[{"op":1},"x"],"ok":"\\"}`, true, [4]string{``, `[{"op":1},"x"]`, ``, `"\\"`}},
		{`{"op":1,"op":2}`, false, [4]string{}},
		{`{"OP":1}`, false, [4]string{}},
		{`{"\u006fp":1}`, false, [4]string{}},
		{`{"öp":1}`, false, [4]string{}},
		{`{"op":1,"other":2}`, false, [4]string{}},
		{`{"":1}`, false, [4]string{}},
		{`[]`, false, [4]string{}},
		{`"op"`, false, [4]string{}},
		{`12`, false, [4]string{}},
		{`null`, false, [4]string{}},
	} {
		in := []byte(c.in)
		if !json.Valid(in) {
			t.Fatalf("%s: the test's input is not JSON", c.in)
		}
		var vals [4][]byte
		var plain bool
		if n := testing.AllocsPerRun(10, func() { plain = Members(in, testKeys, vals[:]) }); n != 0 {
			t.Errorf("%s: Members allocates %.0f times", c.in, n)
		}
		if plain != c.plain {
			t.Errorf("%s: plain %t, want %t", c.in, plain, c.plain)
		}
		for k, want := range c.want {
			if plain && string(vals[k]) != want {
				t.Errorf("%s: %s is %q, want %q", c.in, testKeys[k], vals[k], want)
			}
		}
	}
}

// TestArrayAndStrings: the element walker ends a number or a literal at
// the array's close as well as at a comma, and Strings reads an object of
// plain strings and nothing else; neither allocates.
func TestArrayAndStrings(t *testing.T) {
	for in, want := range map[string][]string{
		`[]`:                        {},
		` [ 1 , -2.5e3 ] `:          {`1`, `-2.5e3`},
		`[true,null,"]",{"a":[1]}]`: {`true`, `null`, `"]"`, `{"a":[1]}`},
		`[[1],[]]`:                  {`[1]`, `[]`},
		`{"a":1}`:                   nil,
		`1`:                         nil,
	} {
		data := []byte(in)
		var elems [4][]byte
		n := 0
		var ok bool
		if allocs := testing.AllocsPerRun(10, func() {
			n = 0
			ok = Array(data, func(elem []byte) bool { elems[n] = elem; n++; return true })
		}); allocs != 0 {
			t.Errorf("%s: Array allocates %.0f times", in, allocs)
		}
		if ok != (want != nil) || n != len(want) {
			t.Fatalf("%s: walked %d elements (%t), want %q", in, n, ok, want)
		}
		for i, w := range want {
			if string(elems[i]) != w {
				t.Errorf("%s: element %d is %q, want %q", in, i, elems[i], w)
			}
		}
	}
	for in, want := range map[string][]string{
		`{}`:                      {},
		`{"out":"order-0"}`:       {"out", "order-0"},
		` { "b" : "" , "a":"x" }`: {"b", "", "a", "x"},
		`{"":"a"}`:                {"", "a"},
		`{"a":1}`:                 nil,
		`{"a":null}`:              nil,
		`{"a":{"b":"c"}}`:         nil,
		`{"a":"x","a":"y"}`:       nil,
		`{"\u0061":"x"}`:          nil,
		`{"a":"\u0061"}`:          nil,
		`{"a":"é"}`:               nil,
		`{"1":"","2":"","3":"","4":"","5":"","6":"","7":"","8":"","9":""}`: nil,
		`["a"]`: nil,
	} {
		data := []byte(in)
		var keys, vals [8][]byte
		var n int
		var ok bool
		if allocs := testing.AllocsPerRun(10, func() { n, ok = Strings(data, keys[:], vals[:]) }); allocs != 0 {
			t.Errorf("%s: Strings allocates %.0f times", in, allocs)
		}
		if ok != (want != nil) || ok && 2*n != len(want) {
			t.Fatalf("%s: read %d strings (%t), want %q", in, n, ok, want)
		}
		for i := 0; ok && i < n; i++ {
			if string(keys[i]) != want[2*i] || string(vals[i]) != want[2*i+1] {
				t.Errorf("%s: member %d is %q:%q, want %q:%q", in, i, keys[i], vals[i], want[2*i], want[2*i+1])
			}
		}
	}
}

// TestValues: each reader accepts its plain form — every int64, at every
// length — and nothing else.
func TestValues(t *testing.T) {
	for _, in := range []string{`""`, `"inst-000001"`, `" a b "`} {
		if s, ok := Str([]byte(in)); !ok || string(s) != in[1:len(in)-1] {
			t.Errorf("Str(%s) = %q, %t", in, s, ok)
		}
	}
	for _, in := range []string{`"a\"b"`, `"\u0061"`, `"é"`, "\"\xff\"", `null`, `12`, `true`, `{}`, ``} {
		if s, ok := Str([]byte(in)); ok {
			t.Errorf("Str(%s) = %q, want it refused", in, s)
		}
	}
	for _, in := range []string{"0", "-0", "7", "-1", "170000000000000000", "1700000000000000000",
		"9223372036854775807", "-9223372036854775808"} {
		want, _ := strconv.ParseInt(in, 10, 64)
		if n, ok := Int([]byte(in)); !ok || n != want {
			t.Errorf("Int(%s) = %d, %t", in, n, ok)
		}
	}
	for _, in := range []string{"9223372036854775808", "-9223372036854775809", "17000000000000000000",
		"99999999999999999999", "1e3", "1.0", "-", "", `"1"`, "null", "true"} {
		if n, ok := Int([]byte(in)); ok {
			t.Errorf("Int(%s) = %d, want it refused", in, n)
		}
	}
	for in, want := range map[string][2]bool{"true": {true, true}, "false": {false, true},
		"null": {false, false}, "1": {false, false}, `"true"`: {false, false}, "": {false, false}} {
		if b, ok := Bool([]byte(in)); b != want[0] || ok != want[1] {
			t.Errorf("Bool(%s) = %t, %t", in, b, ok)
		}
	}
}

// FuzzReader holds the reader to encoding/json on every valid input: it
// stays inside the input, what it splits is what the reference's token
// stream holds, member for member and element for element, an object of
// strings it reads is the map the reference decodes, and a value it reads
// is the value the reference decodes. It may refuse; it may not differ.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		`{"op":"start","args":{"instance":"inst-000001","at":1700000000000000000},"ok":true}`,
		`{"op":"a","op":"b"}`, `{"OP":"a","at":1,"ok":null}`, ` { "at" : -9223372036854775808 , "ok" : false } `,
		`{"args":[[[{"x":"]}"}]]],"at":1e3}`, `{"op":"é\"\\","at":-0}`, `[1,2]`, `"s"`, `{"at":9223372036854775808}`,
		`[1, -2.5e3]`, `[true,null]`, ` [ {"a":[1]} , "]" , [] ] `, `{"out":"order-0","b":""}`, `{"a":"x","a":"y"}`, `{"a":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return // the reader's precondition
		}
		var vals [4][]byte
		if Members(data, testKeys, vals[:]) {
			dec := json.NewDecoder(bytes.NewReader(data))
			if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
				t.Fatalf("%q: split as an object, the reference reads %v, %v", data, tok, err)
			}
			members := 0
			for ; dec.More(); members++ {
				key, _ := dec.Token()
				var raw json.RawMessage
				if err := dec.Decode(&raw); err != nil {
					t.Fatal(err)
				}
				k := 0
				for k < len(testKeys) && testKeys[k] != key {
					k++
				}
				if k == len(testKeys) || !bytes.Equal(vals[k], raw) {
					t.Fatalf("%q: member %q is %q in the reference; split as %q", data, key, raw, vals)
				}
			}
			for _, val := range vals {
				if val != nil {
					members--
				}
			}
			if members != 0 {
				t.Fatalf("%q: split as %q, the reference counts %d members more", data, vals, members)
			}
		}
		var elems []json.RawMessage
		if Array(data, func(elem []byte) bool { elems = append(elems, elem); return true }) {
			var want []json.RawMessage
			if err := json.Unmarshal(data, &want); err != nil || len(want) != len(elems) {
				t.Fatalf("%q: walked as an array of %q, the reference reads %q, %v", data, elems, want, err)
			}
			for i := range want {
				if !bytes.Equal(elems[i], want[i]) {
					t.Fatalf("%q: element %d walked as %q, the reference reads %q", data, i, elems[i], want[i])
				}
			}
		}
		var keys, strs [8][]byte
		if n, ok := Strings(data, keys[:], strs[:]); ok {
			var want map[string]any
			if err := json.Unmarshal(data, &want); err != nil || len(want) != n {
				t.Fatalf("%q: read as %d strings, the reference reads %v, %v", data, n, want, err)
			}
			for i := range n {
				if s, ok := want[string(keys[i])].(string); !ok || s != string(strs[i]) {
					t.Fatalf("%q: %q read as %q, the reference reads %#v", data, keys[i], strs[i], want[string(keys[i])])
				}
			}
		}
		// data is a raw value too, less the space around it.
		data = bytes.TrimSpace(data)
		if s, ok := Str(data); ok {
			var want string
			if err := json.Unmarshal(data, &want); err != nil || want != string(s) {
				t.Fatalf("Str(%q) = %q, the reference reads %q, %v", data, s, want, err)
			}
		}
		var want int64
		err := json.Unmarshal(data, &want)
		if n, ok := Int(data); ok && (err != nil || n != want) {
			t.Fatalf("Int(%q) = %d, the reference reads %d, %v", data, n, want, err)
		} else if _, perr := strconv.ParseInt(string(data), 10, 64); !ok && perr == nil {
			t.Fatalf("Int(%q) refuses an int64 in plain digits", data)
		}
		if b, ok := Bool(data); ok {
			var want bool
			if err := json.Unmarshal(data, &want); err != nil || want != b {
				t.Fatalf("Bool(%q) = %t, the reference reads %t, %v", data, b, want, err)
			}
		}
	})
}
