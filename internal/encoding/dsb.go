// Package encoding implements RAPID's fixed-width column encodings (paper
// §4.2): decimal scaled binary (DSB) for numerics — the DPU has no floating
// point — dictionary encoding for strings, and run-length encoding as the
// lightweight compression applied on top.
package encoding

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxScale is the largest supported DSB scale (10^18 fits int64).
const MaxScale = 18

// Decimal is an exact fixed-point value: Unscaled * 10^-Scale.
type Decimal struct {
	Unscaled int64
	Scale    int8
}

// ParseDecimal parses strings like "123", "-4.50", ".25".
func ParseDecimal(s string) (Decimal, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Decimal{}, fmt.Errorf("encoding: empty decimal")
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
	}
	intPart, fracPart := s, ""
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		intPart, fracPart = s[:dot], s[dot+1:]
	}
	if intPart == "" && fracPart == "" {
		return Decimal{}, fmt.Errorf("encoding: malformed decimal %q", s)
	}
	fracPart = strings.TrimRight(fracPart, "0")
	if len(fracPart) > MaxScale {
		return Decimal{}, fmt.Errorf("encoding: scale %d exceeds max %d", len(fracPart), MaxScale)
	}
	digits := intPart + fracPart
	if digits == "" {
		digits = "0"
	}
	u, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return Decimal{}, fmt.Errorf("encoding: malformed decimal %q: %w", s, err)
	}
	if neg {
		u = -u
	}
	return Decimal{Unscaled: u, Scale: int8(len(fracPart))}, nil
}

// MustParseDecimal parses or panics; for literals in tests and examples.
func MustParseDecimal(s string) Decimal {
	d, err := ParseDecimal(s)
	if err != nil {
		panic(err)
	}
	return d
}

// String renders the decimal without losing digits.
func (d Decimal) String() string {
	if d.Scale == 0 {
		return strconv.FormatInt(d.Unscaled, 10)
	}
	neg := d.Unscaled < 0
	u := d.Unscaled
	if neg {
		u = -u
	}
	s := strconv.FormatInt(u, 10)
	for len(s) <= int(d.Scale) {
		s = "0" + s
	}
	cut := len(s) - int(d.Scale)
	out := s[:cut] + "." + s[cut:]
	if neg {
		out = "-" + out
	}
	return out
}

// Normalize returns the value with trailing zero digits removed from the
// fraction (minimal scale).
func (d Decimal) Normalize() Decimal {
	for d.Scale > 0 && d.Unscaled%10 == 0 {
		d.Unscaled /= 10
		d.Scale--
	}
	return d
}

// Cmp compares two decimals numerically: -1, 0 or +1.
func (d Decimal) Cmp(o Decimal) int {
	a, b := d.Normalize(), o.Normalize()
	// Bring to a common scale; overflow-safe via float fallback for the
	// extreme corner (never hit by normalized inputs within MaxScale).
	if a.Scale == b.Scale {
		switch {
		case a.Unscaled < b.Unscaled:
			return -1
		case a.Unscaled > b.Unscaled:
			return 1
		}
		return 0
	}
	target := a.Scale
	if b.Scale > target {
		target = b.Scale
	}
	av, aok := a.Rescale(target)
	bv, bok := b.Rescale(target)
	if aok && bok {
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	}
	af := float64(a.Unscaled) / float64(pow10[a.Scale])
	bf := float64(b.Unscaled) / float64(pow10[b.Scale])
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

// pow10 table for rescaling.
var pow10 = func() [MaxScale + 1]int64 {
	var t [MaxScale + 1]int64
	t[0] = 1
	for i := 1; i <= MaxScale; i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// Pow10 returns 10^n for n in [0, MaxScale].
func Pow10(n int) int64 {
	if n < 0 || n > MaxScale {
		panic(fmt.Sprintf("encoding: pow10(%d) out of range", n))
	}
	return pow10[n]
}

// Rescale returns the unscaled value of d at the target scale, and false if
// the rescale would overflow int64 or lose digits. A column is stored at one
// fixed scale (storage.ColumnMeta), so a value that does not rescale exactly
// is an error at the codec, not an entry in a per-vector exception table.
func (d Decimal) Rescale(target int8) (int64, bool) {
	switch {
	case target == d.Scale:
		return d.Unscaled, true
	case target > d.Scale:
		diff := int(target - d.Scale)
		if diff > MaxScale {
			return 0, false
		}
		f := pow10[diff]
		v := d.Unscaled * f
		if d.Unscaled != 0 && v/f != d.Unscaled {
			return 0, false // overflow
		}
		return v, true
	default:
		diff := int(d.Scale - target)
		if diff > MaxScale {
			return 0, false
		}
		f := pow10[diff]
		if d.Unscaled%f != 0 {
			return 0, false // would lose digits
		}
		return d.Unscaled / f, true
	}
}
