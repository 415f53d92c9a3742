package xmltext

import "strings"

// AppendText appends s to dst, escaped for inclusion in element content.
func AppendText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// EscapeAttr escapes an attribute value for inclusion in a double-quoted
// attribute.
func EscapeAttr(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '"':
			sb.WriteString("&quot;")
		case '\n':
			sb.WriteString("&#10;")
		case '\t':
			sb.WriteString("&#9;")
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}
