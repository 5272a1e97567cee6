// Package jsonx appends JSON values to a byte slice exactly as
// encoding/json would encode them, without reflection or allocation on
// the common inputs. It exists so a response can be spliced together from
// pre-encoded fragments and a few per-request scalars and still be
// byte-identical to json.Marshal of the equivalent struct; the tests pin
// every function here to encoding/json.
package jsonx

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends a finite f the way encoding/json encodes a float64:
// ES6 number-to-string, i.e. %f unless the exponent is below -6 or at
// least 21, with the exponent's leading zero dropped.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendString appends s as a JSON string with encoding/json's default
// escaping (HTML-sensitive characters, control bytes, invalid UTF-8,
// U+2028/9). Strings needing no escape are copied; anything else takes
// the encoding/json path itself.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil { // unreachable: a string always encodes
				panic("jsonx: " + err.Error())
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendStrings appends ss as a JSON array of strings; like encoding/json,
// a nil slice encodes as null and an empty one as [].
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}
