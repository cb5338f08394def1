package stack

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The byte kernels every renderer of this package appends through.

// pow10 holds the scales appendFixed rounds at.
var pow10 = [...]float64{1, 10, 100, 1e3, 1e4}

// appendFixed appends v with prec decimals, byte for byte what
// strconv.AppendFloat(dst, v, 'f', prec, 64) appends, without strconv's
// multiprecision path: the digits are the scaled value s = |v|·10^prec
// rounded to an integer. The product is within half an ulp of the exact
// one, so that rounding is exact unless s lies within one ulp of a
// half-integer. Such a near-tie (strconv rounds the exact binary value half
// to even), s ≥ 2^52, a non-finite v and a precision past pow10 fall back
// to strconv.
func appendFixed(dst []byte, v float64, prec int) []byte {
	if prec >= 0 && prec < len(pow10) {
		s := math.Abs(v) * pow10[prec]
		q := math.Floor(s)
		if s < 1<<52 && math.Abs(s-q-0.5) > math.Float64frombits(math.Float64bits(s)+1)-s {
			if s-q > 0.5 {
				q++
			}
			if math.Signbit(v) {
				dst = append(dst, '-')
			}
			n, p := uint64(q), uint64(pow10[prec])
			dst = strconv.AppendUint(dst, n/p, 10)
			if prec > 0 { // p+n%p is a 1 and the prec digits; the 1 becomes the point
				dst = strconv.AppendUint(dst, p+n%p, 10)
				dst[len(dst)-prec-1] = '.'
			}
			return dst
		}
	}
	return strconv.AppendFloat(dst, v, 'f', prec, 64)
}

// padTo pads the field dst[from:] with spaces to width runes, as fmt's
// %*s and %*d do: in front when width > 0, behind when width < 0.
func padTo(dst []byte, from, width int) []byte {
	at := len(dst)
	if width > 0 {
		at = from
	}
	for range max(width, -width) - utf8.RuneCount(dst[from:]) {
		dst = slices.Insert(dst, at, ' ')
	}
	return dst
}

// indentJSON appends src — encoding/json's compact output, which holds no
// whitespace outside strings — indented by two spaces per level: byte for
// byte what json.Indent(dst, src, "", "  ") writes, in one pass without
// json.Indent's validating scanner.
func indentJSON(dst, src []byte) []byte {
	nl := []byte{'\n'} // a line break and the current indentation
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++ // the escaped byte cannot end the string
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			if i+1 < len(src) && src[i+1] == c+2 { // '}' and ']' follow their openers by 2
				dst = append(dst, c, c+2)
				i++
				continue
			}
			nl = append(nl, ' ', ' ')
			dst = append(append(dst, c), nl...)
		case '}', ']':
			nl = nl[:len(nl)-2]
			dst = append(append(dst, nl...), c)
		case ',':
			dst = append(append(dst, c), nl...)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendCSV appends one record as a CSV line, byte for byte what
// encoding/csv's Writer (comma separator, LF line ends) writes for it: a
// field is quoted when it holds a quote, a comma, a CR or an LF, when it is
// the two bytes \. (a PostgreSQL end-of-data marker), or when its first
// rune is a space by unicode.IsSpace; inside the quotes every quote is
// doubled and every other byte is kept.
func appendCSV(dst []byte, record []string) []byte {
	for i, f := range record {
		if i > 0 {
			dst = append(dst, ',')
		}
		first, _ := utf8.DecodeRuneInString(f)
		if f != `\.` && !strings.ContainsAny(f, "\",\r\n") && !unicode.IsSpace(first) {
			dst = append(dst, f...)
			continue
		}
		dst = append(dst, '"')
		for j := 0; j < len(f); j++ {
			if f[j] == '"' {
				dst = append(dst, '"')
			}
			dst = append(dst, f[j])
		}
		dst = append(dst, '"')
	}
	return append(dst, '\n')
}
