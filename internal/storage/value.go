package storage

import (
	"fmt"
	"time"

	"rapid/internal/coltypes"
	"rapid/internal/encoding"
)

// Value is a logical cell value used at the load and result boundaries.
// Inside the engine everything is fixed-width integers; Values exist only
// where humans or the host database meet RAPID.
type Value struct {
	Kind coltypes.Kind
	Int  int64            // KindInt, KindDate (days since epoch), KindBool (0/1)
	Dec  encoding.Decimal // KindDecimal
	Str  string           // KindString
}

// IntValue builds an integer value.
func IntValue(v int64) Value { return Value{Kind: coltypes.KindInt, Int: v} }

// DecValue builds a decimal value.
func DecValue(d encoding.Decimal) Value { return Value{Kind: coltypes.KindDecimal, Dec: d} }

// DecString parses a decimal literal into a value; panics on bad input.
func DecString(s string) Value { return DecValue(encoding.MustParseDecimal(s)) }

// StrValue builds a string value.
func StrValue(s string) Value { return Value{Kind: coltypes.KindString, Str: s} }

// BoolValue builds a boolean value.
func BoolValue(b bool) Value {
	v := Value{Kind: coltypes.KindBool}
	if b {
		v.Int = 1
	}
	return v
}

// epoch is day zero of the DATE encoding.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateValue builds a date value from y/m/d.
func DateValue(y, m, d int) Value {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return Value{Kind: coltypes.KindDate, Int: int64(t.Sub(epoch).Hours() / 24)}
}

// ParseDate parses "YYYY-MM-DD" into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("storage: bad date %q: %w", s, err)
	}
	return Value{Kind: coltypes.KindDate, Int: int64(t.Sub(epoch).Hours() / 24)}, nil
}

// DateToString renders a day number as "YYYY-MM-DD".
func DateToString(days int64) string {
	return epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// DaysFromDate converts a parsed date value back to its day number.
func (v Value) Days() int64 { return v.Int }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case coltypes.KindInt:
		return fmt.Sprintf("%d", v.Int)
	case coltypes.KindDecimal:
		return v.Dec.String()
	case coltypes.KindDate:
		return DateToString(v.Int)
	case coltypes.KindString:
		return v.Str
	case coltypes.KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("Value(kind=%d)", v.Kind)
}

// Equal compares two values logically.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case coltypes.KindDecimal:
		return v.Dec.Cmp(o.Dec) == 0
	case coltypes.KindString:
		return v.Str == o.Str
	default:
		return v.Int == o.Int
	}
}
