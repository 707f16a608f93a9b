// Package qgen is a randomized differential and metamorphic testing harness
// for the full SQL pipeline (parse → bind → compile → execute). It generates
// seeded random schemas, data and SQL query strings, then executes each
// query on the three engines — the hostdb row interpreter, RAPID ModeX86 and
// RAPID ModeDPU — plus a second database loaded with a different physical
// layout (small chunks, RLE), and asserts bag-equality of the
// rendered results. On top of the differential check it runs metamorphic
// checks: TLP-style predicate partitioning (Q ≡ Q WHERE p ⊎ Q WHERE NOT p ⊎
// Q WHERE p IS NULL), tautology/contradiction injection, and the
// layout-equivalence check implied by the second database.
//
// The engine's value domain has no NULL: every column is NOT NULL and all
// expressions are total, so the IS NULL branch of TLP is legitimately
// constant-empty but still exercises the parse/bind/fold path.
//
// Everything is deterministic for a fixed seed. On a mismatch the runner
// produces a replayable {seed, query, schema+data} reproducer and the
// minimizer shrinks the query at the AST level while the mismatch persists.
package qgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Generator produces random scenarios and queries from a seeded PRNG.
type Generator struct {
	seed int64
	rng  *rand.Rand
	sc   *Scenario
}

// New creates a generator. The same seed always yields the same scenario and
// query sequence.
func New(seed int64) *Generator {
	return &Generator{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (g *Generator) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.rng.Intn(n)
}

func (g *Generator) chance(p float64) bool { return g.rng.Float64() < p }

func (g *Generator) pick(ss []string) string { return ss[g.intn(len(ss))] }

// dateStr formats a day number (days since 1970-01-01) as yyyy-mm-dd,
// matching Relation.Render.
func dateStr(days int64) string {
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// Mismatch describes one differential or metamorphic failure with everything
// needed to replay it.
type Mismatch struct {
	Seed     int64
	SQL      string
	Check    string // "differential", "order", "tlp", "tautology", ...
	Detail   string
	Scenario *Scenario
	// Minimized is filled by Runner.Minimize when a smaller failing query
	// was found.
	Minimized string
}

// Error implements error.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("qgen %s mismatch (seed %d): %s\n%s", m.Check, m.Seed, m.SQL, m.Detail)
}

// Reproducer renders the full replayable report: seed, query (and its
// minimized form), and the schema + data of every table.
func (m *Mismatch) Reproducer() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== qgen reproducer ===\n")
	fmt.Fprintf(&b, "check:     %s\n", m.Check)
	fmt.Fprintf(&b, "seed:      %d\n", m.Seed)
	fmt.Fprintf(&b, "query:     %s\n", m.SQL)
	if m.Minimized != "" && m.Minimized != m.SQL {
		fmt.Fprintf(&b, "minimized: %s\n", m.Minimized)
	}
	fmt.Fprintf(&b, "detail:\n%s\n", m.Detail)
	if m.Scenario != nil {
		b.WriteString(m.Scenario.Dump())
	}
	fmt.Fprintf(&b, "replay: go test ./internal/qgen -run Differential -qgen.seed=%d\n", m.Seed)
	return b.String()
}
