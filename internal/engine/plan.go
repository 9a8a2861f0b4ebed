package engine

import (
	"fmt"
	"strings"

	"fudj/internal/catalog"
	"fudj/internal/expr"
	"fudj/internal/sqlparse"
	"fudj/internal/types"
)

// The planner turns a parsed SELECT into a left-deep physical plan:
// per-table scans with pushed-down filters, a sequence of join steps,
// a residual filter, optional grouping/aggregation, ordering, limit,
// and a final projection. The FUDJ rewrite rule (§VI-C) lives in
// chooseJoin: a conjunct whose function name and arity match an
// installed join becomes a FUDJ join step.

type joinKind int

const (
	joinNLJ     joinKind = iota // nested loop with arbitrary predicate (on-top)
	joinHash                    // equi-join on expressions
	joinFUDJ                    // the Fig. 8 FUDJ pipeline
	joinBuiltin                 // hand-built registered operator
	joinCross                   // cartesian product (no usable condition)
)

func (k joinKind) String() string {
	switch k {
	case joinNLJ:
		return "NESTED-LOOP"
	case joinHash:
		return "HASH"
	case joinFUDJ:
		return "FUDJ"
	case joinBuiltin:
		return "BUILTIN"
	case joinCross:
		return "CROSS"
	}
	return "?"
}

// tableScan is one base input with pushed-down filters.
type tableScan struct {
	ref    sqlparse.TableRef
	ds     *catalog.Dataset
	schema *types.Schema // alias-qualified field names
	filter expr.Expr     // nil when no pushable conjunct
}

// fudjStep carries everything the FUDJ executor needs.
type fudjStep struct {
	def      *catalog.JoinDef
	leftKey  expr.Expr // key expression over the accumulated left schema
	rightKey expr.Expr // key expression over the new right table
	params   []types.Value
	selfJoin bool // same dataset with identical filters: summary reuse

	builtin    BuiltinJoinFunc // the hand-built operator, when kind is joinBuiltin
	smartTheta bool            // multi-join COMBINE runs the balanced theta operator
}

// joinStep joins the accumulated left input with one new table.
type joinStep struct {
	kind     joinKind
	cond     expr.Expr // NLJ predicate (kind == joinNLJ)
	hashL    expr.Expr // equi-join keys (kind == joinHash)
	hashR    expr.Expr
	fudj     *fudjStep   // kind == joinFUDJ / joinBuiltin
	residual []expr.Expr // extra conjuncts applied right after this join
}

// aggSpec is one aggregate output column.
type aggSpec struct {
	fn    string // count, sum, avg, min, max
	arg   expr.Expr
	alias string
}

// outputCol is one projected column when no aggregation is present.
type outputCol struct {
	e     expr.Expr
	alias string
}

type orderKey struct {
	e    expr.Expr
	desc bool
}

type queryPlan struct {
	db        *Database
	set       execSettings // snapshot taken at submission; plan and run both read it
	scans     []tableScan
	joins     []joinStep
	post      []expr.Expr // residual filter after all joins
	groupBy   []expr.Expr
	aggs      []aggSpec
	having    expr.Expr   // rewritten to reference output columns; nil if absent
	cols      []outputCol // used when len(aggs) == 0
	distinct  bool
	outSchema *types.Schema
	orderBy   []orderKey
	limit     int
}

// plan binds and plans sel under set, the settings snapshot taken
// when the query was submitted; execution reads the same snapshot.
func (db *Database) plan(sel *sqlparse.Select, set execSettings) (*queryPlan, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("engine: query needs a FROM clause")
	}
	p := &queryPlan{db: db, set: set, limit: sel.Limit}

	// Bind tables.
	seen := map[string]bool{}
	for _, ref := range sel.From {
		if seen[ref.Alias] {
			return nil, fmt.Errorf("engine: duplicate alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		ds, err := db.catalog.Dataset(ref.Dataset)
		if err != nil {
			return nil, err
		}
		fields := make([]types.Field, ds.Schema.Len())
		for i, f := range ds.Schema.Fields {
			fields[i] = types.Field{Name: ref.Alias + "." + f.Name, Kind: f.Kind}
		}
		p.scans = append(p.scans, tableScan{ref: ref, ds: ds, schema: types.NewSchema(fields...)})
	}

	// Classify WHERE conjuncts.
	var pool []expr.Expr
	if sel.Where != nil {
		for _, c := range expr.SplitConjuncts(sel.Where) {
			quals := expr.Qualifiers(c)
			if call, ok := c.(*expr.Call); ok && db.catalog.Join(call.Name) != nil && len(quals) < 2 {
				return nil, fmt.Errorf("engine: join predicate %q must reference both sides of a join; its keys do not split", call.Name)
			}
			if pushToScan(p, c, quals) {
				continue
			}
			pool = append(pool, c)
		}
	}

	// Build the left-deep join sequence in FROM order.
	covered := map[string]bool{p.scans[0].ref.Alias: true}
	for i := 1; i < len(p.scans); i++ {
		newAlias := p.scans[i].ref.Alias
		var candidates []expr.Expr
		var rest []expr.Expr
		for _, c := range pool {
			quals := expr.Qualifiers(c)
			if quals[newAlias] && subset(quals, covered, newAlias) {
				candidates = append(candidates, c)
			} else {
				rest = append(rest, c)
			}
		}
		pool = rest
		step, err := db.chooseJoin(p, covered, i, candidates)
		if err != nil {
			return nil, err
		}
		p.joins = append(p.joins, step)
		covered[newAlias] = true
	}
	// Whatever conjuncts remain become the residual post-join filter.
	p.post = pool

	if err := p.planOutput(sel); err != nil {
		return nil, err
	}
	return p, nil
}

// pushToScan pushes a single-table conjunct into its scan. Conjuncts
// with no column references are left in the pool (constant filters).
func pushToScan(p *queryPlan, c expr.Expr, quals map[string]bool) bool {
	if len(quals) != 1 {
		return false
	}
	for i := range p.scans {
		if quals[p.scans[i].ref.Alias] {
			// Also require every unqualified column to resolve here; in
			// this dialect columns are alias-qualified, so this suffices.
			if p.scans[i].filter == nil {
				p.scans[i].filter = c
			} else {
				p.scans[i].filter = &expr.Binary{Op: expr.OpAnd, L: p.scans[i].filter, R: c}
			}
			return true
		}
	}
	return false
}

func subset(quals, covered map[string]bool, extra string) bool {
	for q := range quals {
		if q != extra && !covered[q] {
			return false
		}
	}
	return true
}

// chooseJoin implements the optimizer's strategy selection for one
// join step, with the FUDJ rewrite taking precedence.
func (db *Database) chooseJoin(p *queryPlan, covered map[string]bool, rightIdx int, candidates []expr.Expr) (joinStep, error) {
	newAlias := p.scans[rightIdx].ref.Alias

	// 1. FUDJ rewrite: a candidate call matching an installed join.
	for ci, c := range candidates {
		call, ok := c.(*expr.Call)
		if !ok {
			continue
		}
		def := db.catalog.Join(call.Name)
		if def == nil {
			continue
		}
		if len(call.Args) != def.Arity() {
			return joinStep{}, fmt.Errorf("engine: join %q expects %d arguments, got %d",
				call.Name, def.Arity(), len(call.Args))
		}
		step, err := db.buildFUDJStep(p, covered, rightIdx, call, def)
		if err != nil {
			return joinStep{}, err
		}
		step.residual = append(append([]expr.Expr{}, candidates[:ci]...), candidates[ci+1:]...)
		return step, nil
	}

	// 2. Hash join on a clean equality.
	for ci, c := range candidates {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lq, rq := expr.Qualifiers(b.L), expr.Qualifiers(b.R)
		var hashL, hashR expr.Expr
		switch {
		case onlyIn(lq, covered) && onlyAlias(rq, newAlias):
			hashL, hashR = b.L, b.R
		case onlyIn(rq, covered) && onlyAlias(lq, newAlias):
			hashL, hashR = b.R, b.L
		default:
			continue
		}
		step := joinStep{kind: joinHash, hashL: hashL, hashR: hashR}
		step.residual = append(append([]expr.Expr{}, candidates[:ci]...), candidates[ci+1:]...)
		return step, nil
	}

	// 3. General NLJ over the whole candidate conjunction.
	if len(candidates) > 0 {
		return joinStep{kind: joinNLJ, cond: expr.JoinConjuncts(candidates)}, nil
	}

	// 4. Nothing usable: cartesian product.
	return joinStep{kind: joinCross}, nil
}

func onlyIn(quals, covered map[string]bool) bool {
	if len(quals) == 0 {
		return false
	}
	for q := range quals {
		if !covered[q] {
			return false
		}
	}
	return true
}

func onlyAlias(quals map[string]bool, alias string) bool {
	return len(quals) == 1 && quals[alias]
}

func (db *Database) buildFUDJStep(p *queryPlan, covered map[string]bool, rightIdx int, call *expr.Call, def *catalog.JoinDef) (joinStep, error) {
	newAlias := p.scans[rightIdx].ref.Alias
	key1, key2 := call.Args[0], call.Args[1]
	q1, q2 := expr.Qualifiers(key1), expr.Qualifiers(key2)

	var leftKey, rightKey expr.Expr
	switch {
	case onlyIn(q1, covered) && onlyAlias(q2, newAlias):
		leftKey, rightKey = key1, key2
	case onlyIn(q2, covered) && onlyAlias(q1, newAlias):
		leftKey, rightKey = key2, key1
	default:
		return joinStep{}, fmt.Errorf("engine: join %q keys %v and %v do not split across the join", call.Name, key1, key2)
	}

	// Extra parameters must be literals (the paper embeds them in the
	// function signature, so they are constant per query).
	params := make([]types.Value, 0, len(call.Args)-2)
	for _, a := range call.Args[2:] {
		lit, ok := a.(*expr.Literal)
		if !ok {
			return joinStep{}, fmt.Errorf("engine: join %q parameter %v must be a literal", call.Name, a)
		}
		params = append(params, lit.V)
	}

	// Self-join detection for the summary-reuse optimization: only the
	// two-table case with the same dataset and identical pushed filters.
	selfJoin := false
	if len(covered) == 1 && rightIdx == 1 {
		l, r := p.scans[0], p.scans[1]
		if l.ref.Dataset == r.ref.Dataset && exprEq(stripAlias(l.filter, l.ref.Alias), stripAlias(r.filter, r.ref.Alias)) {
			selfJoin = true
		}
	}

	kind := joinFUDJ
	var op BuiltinJoinFunc
	if p.set.mode == ModeBuiltin {
		if op = p.set.builtins[call.Name]; op != nil {
			kind = joinBuiltin
		}
	}
	return joinStep{kind: kind, fudj: &fudjStep{
		def:        def,
		leftKey:    leftKey,
		rightKey:   rightKey,
		params:     params,
		selfJoin:   selfJoin,
		builtin:    op,
		smartTheta: p.set.smartTheta,
	}}, nil
}

// stripAlias renders a filter with its alias qualifier removed so that
// p1.x > 3 and p2.x > 3 compare equal for self-join detection.
func stripAlias(e expr.Expr, alias string) string {
	if e == nil {
		return ""
	}
	return strings.ReplaceAll(e.String(), alias+".", "")
}

func exprEq(a, b string) bool { return a == b }

// planOutput resolves projections, grouping, ordering, and the output
// schema.
func (p *queryPlan) planOutput(sel *sqlparse.Select) error {
	joined := p.joinedSchema()

	hasAgg := false
	for _, it := range sel.Items {
		if !it.Star && sqlparse.IsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	if hasAgg || len(sel.GroupBy) > 0 {
		p.groupBy = sel.GroupBy
		var fields []types.Field
		// Group columns first, named by matching projection alias when
		// one exists, else by their expression text.
		for _, g := range p.groupBy {
			name := g.String()
			for _, it := range sel.Items {
				if !it.Star && it.Alias != "" && it.Expr.String() == g.String() {
					name = it.Alias
				}
			}
			fields = append(fields, types.Field{Name: name, Kind: inferKind(g, joined)})
		}
		for _, it := range sel.Items {
			if it.Star {
				return fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
			}
			if sqlparse.IsAggregate(it.Expr) {
				call := it.Expr.(*expr.Call)
				alias := it.Alias
				if alias == "" {
					alias = call.String()
				}
				p.aggs = append(p.aggs, aggSpec{fn: call.Name, arg: call.Args[0], alias: alias})
				fields = append(fields, types.Field{Name: alias, Kind: aggKind(call.Name, call.Args[0], joined)})
				continue
			}
			// A non-aggregate item must be one of the group expressions.
			found := false
			for _, g := range p.groupBy {
				if g.String() == it.Expr.String() {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("engine: %v is neither aggregated nor in GROUP BY", it.Expr)
			}
		}
		p.outSchema = types.NewSchema(fields...)
	} else {
		var fields []types.Field
		for _, it := range sel.Items {
			if it.Star {
				for _, f := range joined.Fields {
					p.cols = append(p.cols, outputCol{e: &expr.Column{Name: f.Name}, alias: f.Name})
					fields = append(fields, f)
				}
				continue
			}
			alias := it.Alias
			if alias == "" {
				alias = it.Expr.String()
			}
			p.cols = append(p.cols, outputCol{e: it.Expr, alias: alias})
			fields = append(fields, types.Field{Name: alias, Kind: inferKind(it.Expr, joined)})
		}
		p.outSchema = types.NewSchema(fields...)
	}

	if sel.Having != nil {
		h, err := p.rewriteHaving(sel.Having)
		if err != nil {
			return err
		}
		p.having = h
	}
	p.distinct = sel.Distinct

	for _, o := range sel.OrderBy {
		p.orderBy = append(p.orderBy, orderKey{e: o.Expr, desc: o.Desc})
	}
	return nil
}

// rewriteHaving replaces aggregate calls in a HAVING predicate with
// references to the matching projected aggregate columns, so the
// predicate can run over the aggregation output. An aggregate that is
// not in the select list is rejected (a documented dialect
// restriction; add it to the projection).
func (p *queryPlan) rewriteHaving(e expr.Expr) (expr.Expr, error) {
	switch n := e.(type) {
	case *expr.Binary:
		l, err := p.rewriteHaving(n.L)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteHaving(n.R)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: n.Op, L: l, R: r}, nil
	case *expr.Not:
		inner, err := p.rewriteHaving(n.E)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *expr.Call:
		if sqlparse.IsAggregate(n) {
			want := n.String()
			for _, a := range p.aggs {
				if (&expr.Call{Name: a.fn, Args: []expr.Expr{a.arg}}).String() == want {
					return &expr.Column{Name: a.alias}, nil
				}
			}
			return nil, fmt.Errorf("engine: HAVING aggregate %v must also appear in the select list", n)
		}
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, err := p.rewriteHaving(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &expr.Call{Name: n.Name, Args: args}, nil
	}
	return e, nil
}

// joinedSchema is the schema after all joins: the concatenation of all
// scan schemas in FROM order.
func (p *queryPlan) joinedSchema() *types.Schema {
	out := p.scans[0].schema
	for _, s := range p.scans[1:] {
		out = out.Concat(s.schema)
	}
	return out
}

// inferKind guesses an output kind for schema purposes; when inference
// fails the column is typed as null (kinds are dynamic at runtime, so
// this only affects display).
func inferKind(e expr.Expr, schema *types.Schema) types.Kind {
	switch n := e.(type) {
	case *expr.Column:
		if idx, err := expr.ResolveColumn(n, schema); err == nil {
			return schema.Fields[idx].Kind
		}
	case *expr.Literal:
		return n.V.Kind()
	case *expr.Binary:
		switch n.Op {
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpAnd, expr.OpOr:
			return types.KindBool
		default:
			return inferKind(n.L, schema)
		}
	case *expr.Call:
		switch n.Name {
		case "st_contains", "st_intersects", "interval_overlapping":
			return types.KindBool
		case "st_distance", "similarity_jaccard":
			return types.KindFloat64
		case "st_make_point":
			return types.KindPoint
		case "interval":
			return types.KindInterval
		case "word_tokens":
			return types.KindList
		case "len", "abs":
			return types.KindInt64
		}
	}
	return types.KindNull
}

func aggKind(fn string, arg expr.Expr, schema *types.Schema) types.Kind {
	switch fn {
	case "count":
		return types.KindInt64
	case "avg":
		return types.KindFloat64
	default:
		return inferKind(arg, schema)
	}
}

// explain renders the physical plan, leaf to root.
func (p *queryPlan) explain() string {
	var sb strings.Builder
	indent := 0
	line := func(format string, args ...any) {
		sb.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}

	line("OUTPUT %v", p.outSchema)
	indent++
	if p.limit >= 0 {
		line("LIMIT %d", p.limit)
	}
	if len(p.orderBy) > 0 {
		keys := make([]string, len(p.orderBy))
		for i, o := range p.orderBy {
			keys[i] = o.e.String()
			if o.desc {
				keys[i] += " DESC"
			}
		}
		line("SORT %s", strings.Join(keys, ", "))
	}
	if len(p.aggs) > 0 || len(p.groupBy) > 0 {
		gs := make([]string, len(p.groupBy))
		for i, g := range p.groupBy {
			gs[i] = g.String()
		}
		as := make([]string, len(p.aggs))
		for i, a := range p.aggs {
			as[i] = fmt.Sprintf("%s(%v)", a.fn, a.arg)
		}
		line("GROUP BY [%s] AGG [%s]  (local partial + hash exchange + final)",
			strings.Join(gs, ", "), strings.Join(as, ", "))
	} else {
		line("PROJECT %v", p.outSchema)
	}
	if len(p.post) > 0 {
		line("FILTER %v", expr.JoinConjuncts(p.post))
	}
	// Joins, innermost last.
	for i := len(p.joins) - 1; i >= 0; i-- {
		j := p.joins[i]
		switch j.kind {
		case joinFUDJ, joinBuiltin:
			line("%s JOIN %s (class %s)", j.kind, j.fudj.def.Name, j.fudj.def.Class)
			indent++
			if len(j.residual) > 0 {
				line("RESIDUAL FILTER %v", expr.JoinConjuncts(j.residual))
			}
			match := "HASH (default match)"
			if !j.fudj.def.New().Descriptor().DefaultMatch {
				match = "THETA (custom match: broadcast + local bucket matching)"
			}
			line("COMBINE: %s, verify, dedup=%v", match, j.fudj.def.New().Descriptor().Dedup)
			line("PARTITION: assign + shuffle by bucket")
			reuse := ""
			if j.fudj.selfJoin {
				reuse = " [self-join: summary reused]"
			}
			line("SUMMARIZE: local agg + global agg + divide%s", reuse)
			line("keys: L=%v R=%v params=%v", j.fudj.leftKey, j.fudj.rightKey, j.fudj.params)
			indent--
		case joinHash:
			line("HASH JOIN on %v = %v", j.hashL, j.hashR)
		case joinNLJ:
			line("NESTED-LOOP JOIN on %v  (broadcast right)", j.cond)
		case joinCross:
			line("CROSS JOIN")
		}
	}
	for i := len(p.scans) - 1; i >= 0; i-- {
		s := p.scans[i]
		if s.filter != nil {
			line("SCAN %s AS %s FILTER %v", s.ref.Dataset, s.ref.Alias, s.filter)
		} else {
			line("SCAN %s AS %s", s.ref.Dataset, s.ref.Alias)
		}
	}
	return sb.String()
}
