// Package jsonx holds the one piece of JSON text the hand-written encoders
// of this tree share. The journal line (internal/persist), a value set and
// a data store (internal/data) and the execution history
// (internal/history) are appended by hand because they are written once
// per command or per checkpointed event; each is held byte for byte to
// what encoding/json writes for the same value by a fuzz target, and all
// of them quote strings here.
package jsonx

import (
	"encoding/json"
	"unicode/utf8"
)

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
