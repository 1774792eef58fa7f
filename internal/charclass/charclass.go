// Package charclass implements character classes over the byte alphabet
// Σ = {0, ..., 255}. A character class is the predicate σ ⊆ Σ that labels
// transitions (and, after the homogeneous Glushkov construction, states) in
// the automata models used throughout this repository.
//
// Classes are represented as 256-bit sets stored in four uint64 words, so
// membership tests, unions, intersections and equality are branch-free and
// allocation-free. The zero value is the empty class.
package charclass

import (
	"fmt"
	"math/bits"
	"strings"
)

// AlphabetSize is the number of symbols in the input alphabet. BVAP, like the
// AP-style processors it extends, processes one 8-bit symbol per cycle.
const AlphabetSize = 256

// Class is a set of byte symbols. It is a value type: all operations return
// new classes and never mutate their receivers.
type Class struct {
	bits [4]uint64
}

// Empty returns the class containing no symbols.
func Empty() Class { return Class{} }

// Any returns the class Σ containing every symbol (the PCRE "." with DOTALL,
// written Σ in the paper).
func Any() Class {
	return Class{bits: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
}

// Single returns the singleton class {b}.
func Single(b byte) Class {
	var c Class
	c.bits[b>>6] = 1 << (b & 63)
	return c
}

// Range returns the class containing every symbol in [lo, hi]. It panics if
// lo > hi, which indicates a parser bug rather than bad user input.
func Range(lo, hi byte) Class {
	if lo > hi {
		panic(fmt.Sprintf("charclass: invalid range %d-%d", lo, hi))
	}
	var c Class
	for b := int(lo); b <= int(hi); b++ {
		c.bits[b>>6] |= 1 << (uint(b) & 63)
	}
	return c
}

// Of returns the class containing exactly the given symbols.
func Of(symbols ...byte) Class {
	var c Class
	for _, b := range symbols {
		c.bits[b>>6] |= 1 << (b & 63)
	}
	return c
}

// FromString returns the class containing every byte of s.
func FromString(s string) Class {
	var c Class
	for i := 0; i < len(s); i++ {
		b := s[i]
		c.bits[b>>6] |= 1 << (b & 63)
	}
	return c
}

// Contains reports whether symbol b is a member of the class.
func (c Class) Contains(b byte) bool {
	return c.bits[b>>6]&(1<<(b&63)) != 0
}

// IsEmpty reports whether the class contains no symbols.
func (c Class) IsEmpty() bool {
	return c.bits[0]|c.bits[1]|c.bits[2]|c.bits[3] == 0
}

// Count returns the number of symbols in the class.
func (c Class) Count() int {
	return bits.OnesCount64(c.bits[0]) + bits.OnesCount64(c.bits[1]) +
		bits.OnesCount64(c.bits[2]) + bits.OnesCount64(c.bits[3])
}

// Union returns c ∪ d.
func (c Class) Union(d Class) Class {
	var r Class
	for i := range r.bits {
		r.bits[i] = c.bits[i] | d.bits[i]
	}
	return r
}

// Intersect returns c ∩ d.
func (c Class) Intersect(d Class) Class {
	var r Class
	for i := range r.bits {
		r.bits[i] = c.bits[i] & d.bits[i]
	}
	return r
}

// Negate returns Σ \ c.
func (c Class) Negate() Class {
	var r Class
	for i := range r.bits {
		r.bits[i] = ^c.bits[i]
	}
	return r
}

// Minus returns c \ d.
func (c Class) Minus(d Class) Class {
	var r Class
	for i := range r.bits {
		r.bits[i] = c.bits[i] &^ d.bits[i]
	}
	return r
}

// Equal reports whether c and d contain the same symbols.
func (c Class) Equal(d Class) bool { return c.bits == d.bits }

// Overlaps reports whether c ∩ d is nonempty.
func (c Class) Overlaps(d Class) bool {
	return c.bits[0]&d.bits[0]|c.bits[1]&d.bits[1]|
		c.bits[2]&d.bits[2]|c.bits[3]&d.bits[3] != 0
}

// Symbols returns the members of the class in ascending order.
func (c Class) Symbols() []byte { return c.AppendSymbols(make([]byte, 0, c.Count())) }

// AppendSymbols appends the members of the class to dst in ascending order
// and returns the extended slice.
func (c Class) AppendSymbols(dst []byte) []byte {
	for w := 0; w < 4; w++ {
		word := c.bits[w]
		for word != 0 {
			i := bits.TrailingZeros64(word)
			dst = append(dst, byte(w<<6+i))
			word &= word - 1
		}
	}
	return dst
}

// Min returns the smallest symbol in the class and ok=false if it is empty.
func (c Class) Min() (b byte, ok bool) {
	for w := 0; w < 4; w++ {
		if c.bits[w] != 0 {
			return byte(w<<6 + bits.TrailingZeros64(c.bits[w])), true
		}
	}
	return 0, false
}

// Hash returns a well-distributed 64-bit hash of the class, suitable for use
// as a map key component when deduplicating classes in the symbol encoder.
func (c Class) Hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(0)
	for _, w := range c.bits {
		h ^= w
		h *= m
		h = bits.RotateLeft64(h, 31)
	}
	return h
}

// Perl-style shorthand classes.
var (
	digit      = Range('0', '9')
	wordClass  = Range('a', 'z').Union(Range('A', 'Z')).Union(digit).Union(Single('_'))
	spaceClass = Of(' ', '\t', '\n', '\v', '\f', '\r')
)

// Digit returns \d.
func Digit() Class { return digit }

// NotDigit returns \D.
func NotDigit() Class { return digit.Negate() }

// Word returns \w.
func Word() Class { return wordClass }

// NotWord returns \W.
func NotWord() Class { return wordClass.Negate() }

// Space returns \s.
func Space() Class { return spaceClass }

// NotSpace returns \S.
func NotSpace() Class { return spaceClass.Negate() }

// FoldCase returns the class closed under ASCII case folding: for every
// letter member, the other-case letter is included too. Rule sets
// (Snort/Suricata in particular) use the PCRE (?i) modifier pervasively;
// the hardware realizes it by widening STE predicates.
func (c Class) FoldCase() Class {
	out := c
	for b := byte('a'); b <= 'z'; b++ {
		if c.Contains(b) {
			out = out.Union(Single(b - 'a' + 'A'))
		}
	}
	for b := byte('A'); b <= 'Z'; b++ {
		if c.Contains(b) {
			out = out.Union(Single(b - 'A' + 'a'))
		}
	}
	return out
}

// ranges returns the maximal runs [lo,hi] of consecutive members.
func (c Class) ranges() [][2]byte {
	var out [][2]byte
	inRun := false
	var lo byte
	for b := 0; b < AlphabetSize; b++ {
		if c.Contains(byte(b)) {
			if !inRun {
				inRun = true
				lo = byte(b)
			}
		} else if inRun {
			inRun = false
			out = append(out, [2]byte{lo, byte(b - 1)})
		}
	}
	if inRun {
		out = append(out, [2]byte{lo, 255})
	}
	return out
}

func writeEscaped(sb *strings.Builder, b byte) {
	switch {
	case b == '\\' || b == ']' || b == '^' || b == '-':
		sb.WriteByte('\\')
		sb.WriteByte(b)
	case b >= 0x20 && b < 0x7f:
		sb.WriteByte(b)
	case b == '\n':
		sb.WriteString(`\n`)
	case b == '\r':
		sb.WriteString(`\r`)
	case b == '\t':
		sb.WriteString(`\t`)
	default:
		fmt.Fprintf(sb, `\x%02x`, b)
	}
}

// String renders the class in regex syntax: "." for Σ, a bare (possibly
// escaped) literal for singletons, and a bracket expression otherwise. A
// class covering more than half of Σ is rendered negated.
func (c Class) String() string {
	if c.Equal(Any()) {
		return "."
	}
	if c.IsEmpty() {
		return "[]"
	}
	if c.Count() == 1 {
		b, _ := c.Min()
		var sb strings.Builder
		writeEscaped(&sb, b)
		return sb.String()
	}
	neg := false
	body := c
	if c.Count() > AlphabetSize/2 {
		neg = true
		body = c.Negate()
	}
	var sb strings.Builder
	sb.WriteByte('[')
	if neg {
		sb.WriteByte('^')
	}
	for _, r := range body.ranges() {
		writeEscaped(&sb, r[0])
		if r[1] > r[0] {
			if r[1] > r[0]+1 {
				sb.WriteByte('-')
			}
			writeEscaped(&sb, r[1])
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
