// Package jsonx is the one home of this tree's hand-written JSON: the
// string quoting its encoders share, and a reader for the one shape its
// decoders meet once per command.
//
// Writing: the journal line (internal/persist), a flat command's args
// (the field table behind each wire form's AppendJSON in the root
// package, for the journal line and the command line alike), a value set
// and a data store (internal/data) and the execution history
// (internal/history) are appended by hand because they are written once
// per command or per checkpointed event; each is held byte for byte to
// what encoding/json writes for the same value by a fuzz target, all of
// them quote strings with AppendString, and a command's outputs, a value
// set and a data store write their dynamic values with AppendValue.
//
// Reading: a command line and a flat command's args are each one small
// JSON object of known members. Members splits such an object into the
// raw value of each member, and Str, Int and Bool read a raw value, none
// of them allocating — for input that is plain. Plain means: an object
// whose keys are spelled exactly as the caller lists them, each at most
// once, with no escape and no non-ASCII byte in a key or in a string
// value read, integers written as plain int64 digits (no fraction, no
// exponent), booleans true or false. Everything else — a repeated, an
// unknown or a case-folded key, "\u0061", null, 1e3, a value of another
// type — is reported as not plain rather than interpreted, and the caller
// decodes that input with encoding/json, which stays the reference for
// what any input means: a reader here may refuse an input, it never reads
// one differently. The input must have passed json.Valid first; the
// reader checks shape, not syntax, and indexes past the end of anything
// else.
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
		k := 0
		for k < len(keys) && keys[k] != string(data[start:i]) {
			k++
		}
		if k == len(keys) || vals[k] != nil {
			return false
		}
		i = skipSpace(data, skipSpace(data, i+1)+1) // past the colon
		end := skipValue(data, i)
		vals[k] = data[i:end]
		if i = skipSpace(data, end); data[i] == '}' {
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
	for data[i] != ',' && data[i] != '}' && data[i] > ' ' { // a number or a literal ends where its member does
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
