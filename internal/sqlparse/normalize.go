package sqlparse

import (
	"slices"
	"strings"
)

// Literal normalization for the query cache (DESIGN.md §10) and the query
// journal. Normalize lexes a statement and replaces every number and string
// literal with a `?` placeholder, yielding a canonical template (keywords
// upper-cased, identifiers lower-cased, single-space separated) plus a
// fingerprint of the extracted literals in occurrence order. Two invocations
// of the same dashboard query that differ only in whitespace, letter case or
// literal values therefore share a TemplateFP, while the (TemplateFP,
// ParamsFP) pair still distinguishes distinct literal bindings — exactly
// the two keying granularities the plan cache and result cache need.

// The literal class a parameter replaced, hashed before its text: the number
// 5 and the string '5' are different parameters.
const (
	paramNumber = iota
	paramString
)

// Normalized is the canonical form of one SQL statement.
type Normalized struct {
	Template   string // literal-free canonical rendering
	TemplateFP uint64 // FNV-1a over Template
	ParamsFP   uint64 // FNV-1a over the literals in occurrence order (class + text)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Normalize canonicalizes one SQL statement. It fails only when the lexer
// does (unterminated string, stray character); callers fall back to raw-SQL
// fingerprinting in that case so malformed input still journals.
func Normalize(sql string) (Normalized, error) {
	toks, err := lex(sql)
	if err != nil {
		return Normalized{}, err
	}
	var sb strings.Builder
	sb.Grow(len(sql))
	ph := uint64(fnvOffset64)
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tokNumber:
			sb.WriteByte('?')
			ph = fnvByte(ph, paramNumber)
			ph = fnvString(ph, t.text)
			ph = fnvByte(ph, 0)
		case tokString:
			sb.WriteByte('?')
			ph = fnvByte(ph, paramString)
			ph = fnvString(ph, t.text)
			ph = fnvByte(ph, 0)
		default:
			sb.WriteString(t.text)
		}
	}
	n := Normalized{Template: sb.String(), ParamsFP: ph}
	n.TemplateFP = fnvString(fnvOffset64, n.Template)
	return n, nil
}

// StmtTables lists every base table name a parsed statement touches (FROM
// items, JOIN sides, IN-subquery FROM items), deduplicated: each block's FROM
// and JOIN tables, then those of the IN subqueries it holds, then its set
// operation's right side. The cache uses it to capture per-table version
// vectors before the statement is bound.
func StmtTables(stmt *SelectStmt) []string {
	var out []string
	add := func(name string) {
		if name != "" && !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	var visit func(*SelectStmt)
	visit = func(s *SelectStmt) {
		for ; s != nil; s = s.SetRight {
			for _, f := range s.From {
				add(f.Name)
			}
			for _, j := range s.Joins {
				add(j.Table.Name)
			}
			walkStmt(s, func(n any) {
				if in, ok := n.(*InP); ok && in.Sub != nil {
					visit(in.Sub)
				}
			})
		}
	}
	visit(stmt)
	return out
}
