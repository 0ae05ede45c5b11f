// Package jsonx is the one home of this tree's hand-written JSON: the
// string quoting its encoders share, and a reader for the few shapes its
// decoders meet once per command: objects of known members, objects of
// strings, and arrays of either.
//
// Writing: the journal line (internal/persist), a flat command's args
// (the field table behind each wire form's AppendJSON in the root
// package, for the journal line and the command line alike), the command
// plane's replies (internal/rpc), a value set
// and a data store (internal/data) and the execution history
// (internal/history) are appended by hand because they are written once
// per command or per checkpointed event; each is held byte for byte to
// what encoding/json writes for the same value by a fuzz target, all of
// them quote strings with AppendString, and a command's outputs, a value
// set and a data store write their dynamic values with AppendValue.
//
// Reading: a command line, a flat command's args, a batch frame and a
// reply are each small JSON objects of known members, or arrays of them.
// Object walks an object's members and Array an array's elements, each
// handing over the raw value where it lies; Members splits an object into
// the raw value of each listed key, Strings splits an object of plain
// strings (a completion's outputs), and Str, Int and Bool read a raw value,
// none of them allocating — for input that is plain. Plain means: an
// object whose keys are spelled exactly as the caller lists them (any
// key, for Strings), each at most once, with no escape and no non-ASCII
// byte in a key or in a string value read, integers written as plain
// int64 digits (no fraction, no exponent), booleans true or false.
// Everything else — a repeated, an unknown or a case-folded key,
// "\u0061", null, 1e3, a value of another type — is reported as not plain
// rather than interpreted, and the caller decodes that input with
// encoding/json, which stays the reference for what any input means: a
// reader here may refuse an input, it never reads one differently. The
// input must have passed json.Valid first; the reader checks shape, not
// syntax, and indexes past the end of anything else.
package jsonx

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendValue appends one dynamic value as encoding/json encodes it. The
// types data.Coerce produces and a decoded JSON string or bool are written
// directly; a float64 (every number of a decoded snapshot) and anything
// else an unchecked caller stored go through the encoder.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case string:
		return AppendString(b, x), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, enc...), nil
}

// AppendString appends s as encoding/json encodes a string. Plain ASCII —
// every op, node, element and user ID this system defines — is quoted as
// it stands; anything the encoder would escape (control characters, the
// quote and the backslash, HTML's <, > and &, non-ASCII including invalid
// UTF-8 and U+2028/9) goes through the encoder.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Members splits data, which json.Valid has accepted, into its members:
// vals[i] becomes the raw value of the member keys[i] names, nil when the
// object has none. It reports false — not plain — unless data is one
// object whose every key is plain, in keys, and there once.
func Members(data []byte, keys []string, vals [][]byte) bool {
	clear(vals)
	return Object(data, func(key, val []byte) bool {
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if k == len(keys) || vals[k] != nil {
			return false
		}
		vals[k] = val
		return true
	})
}

// Strings splits an object whose every value is a plain string: keys[:n]
// and vals[:n] become its keys and the contents of their strings, in
// order, aliasing data. It reports false — not plain — unless data is one
// object of at most len(keys) members whose every key is plain and there
// once and whose every value Str reads.
func Strings(data []byte, keys, vals [][]byte) (n int, plain bool) {
	plain = Object(data, func(key, val []byte) bool {
		s, ok := Str(val)
		if !ok || n == len(keys) {
			return false
		}
		for _, k := range keys[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		keys[n], vals[n] = key, s
		n++
		return true
	})
	return n, plain
}

// Object is the one member walker: it calls fn with the key — its bytes
// between the quotes, aliasing data — and the raw value of each member of
// the object data holds, in order, and stops at the first member fn
// refuses. It reports false unless data, which json.Valid has accepted,
// is one object whose every key is plain and whose every member fn
// accepted.
func Object(data []byte, fn func(key, val []byte) bool) bool {
	i := skipSpace(data, 0)
	if data[i] != '{' {
		return false
	}
	if i = skipSpace(data, i+1); data[i] == '}' {
		return true
	}
	for {
		start := i + 1 // past the key's opening quote
		for i = start; data[i] != '"'; i++ {
			if data[i] == '\\' || data[i] >= utf8.RuneSelf {
				return false
			}
		}
		key := data[start:i]
		i = skipSpace(data, skipSpace(data, i+1)+1) // past the colon
		end := skipValue(data, i)
		if !fn(key, data[i:end]) {
			return false
		}
		if i = skipSpace(data, end); data[i] == '}' {
			return true
		}
		i = skipSpace(data, i+1) // past the comma
	}
}

// Array is the one element walker: it calls fn with the raw value of each
// element of the array data holds, in order, and stops at the first
// element fn refuses. It reports false unless data, which json.Valid has
// accepted, is one array whose every element fn accepted.
func Array(data []byte, fn func(elem []byte) bool) bool {
	i := skipSpace(data, 0)
	if data[i] != '[' {
		return false
	}
	if i = skipSpace(data, i+1); data[i] == ']' {
		return true
	}
	for {
		end := skipValue(data, i)
		if !fn(data[i:end]) {
			return false
		}
		if i = skipSpace(data, end); data[i] == ']' {
			return true
		}
		i = skipSpace(data, i+1) // past the comma
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index past the value that starts at data[i].
func skipValue(data []byte, i int) int {
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		for depth := 0; ; i++ {
			switch data[i] {
			case '"':
				i = skipString(data, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for data[i] != ',' && data[i] != '}' && data[i] != ']' && data[i] > ' ' { // a number or a literal ends where its member or element does
		i++
	}
	return i
}

// skipString returns the index past the string whose quote is data[i].
func skipString(data []byte, i int) int {
	for i++; data[i] != '"'; i++ {
		if data[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// Str reads a raw value as a string without escapes or non-ASCII bytes
// and returns its bytes, which alias the input.
func Str(val []byte) ([]byte, bool) {
	if len(val) < 2 || val[0] != '"' {
		return nil, false
	}
	s := val[1 : len(val)-1]
	for _, c := range s {
		if c == '\\' || c >= utf8.RuneSelf {
			return nil, false
		}
	}
	return s, true
}

// Int reads a raw value as an integer written in plain digits, every
// int64 included.
func Int(val []byte) (int64, bool) {
	digits := val
	if len(val) > 0 && val[0] == '-' {
		digits = val[1:]
	}
	if len(digits) == 0 || len(digits) > 19 { // 19 digits fit a uint64
		return 0, false
	}
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if len(digits) < len(val) {
		return -int64(n), n <= -math.MinInt64
	}
	return int64(n), n <= math.MaxInt64
}

// Bool reads a raw value as true or false.
func Bool(val []byte) (b, ok bool) {
	return string(val) == "true", string(val) == "true" || string(val) == "false"
}
