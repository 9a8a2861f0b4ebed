package engine

import (
	"bytes"
	"testing"

	"fudj/internal/joins/builtin"
	"fudj/internal/types"
)

// The byte-level determinism contract behind retry and speculation:
// executing the same query on two independently built (identically
// seeded) multi-node clusters must produce byte-identical encoded
// results — not merely the same multiset. This is the runtime claim
// the fudjvet analyzers enforce statically:
//
//   - maporder backs the GROUP BY query (partial-aggregate emission
//     order, engine/groupby.go) and the builtin-mode interval and text
//     queries (bucket iteration order, joins/builtin).
//   - seedrand backs all of them: no execution decision may read the
//     wall clock or the global math/rand generator.
//   - udfcatch and ctxplumb keep failure and cancellation behavior
//     reproducible on the same paths.
//   - the smart-theta query backs the stateless split routing of the
//     balanced theta operator (engine/theta.go): a split hot bucket's
//     records are dealt by position, not by a shared counter racing
//     across source partitions.
//
// Go randomizes map iteration per map instance, so a reintroduced
// unsorted map range on any of these paths fails this test with high
// probability across repeated runs.
func TestByteIdenticalReexecution(t *testing.T) {
	queries := []struct {
		name       string
		mode       JoinMode
		smartTheta bool
		sql        string
		backing    string
	}{
		{
			name: "groupby",
			mode: ModeFUDJ,
			sql: `SELECT r.overall, COUNT(*) AS n, SUM(r.id) AS total
			      FROM reviews r GROUP BY r.overall ORDER BY r.overall`,
			backing: "maporder: groupby.go phase-1 partial emission order",
		},
		{
			name: "fudj-interval",
			mode: ModeFUDJ,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE a.vendor = 1 AND b.vendor = 2
			      AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
			backing: "maporder/udfcatch: FUDJ COMBINE emission order",
		},
		{
			name: "builtin-interval",
			mode: ModeBuiltin,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE a.vendor = 1 AND b.vendor = 2
			      AND overlapping_interval(a.ride_interval, b.ride_interval, 50)`,
			backing: "maporder: builtin/interval.go bucket iteration order",
		},
		{
			name: "builtin-textsim",
			mode: ModeBuiltin,
			sql: `SELECT a.id, b.id FROM reviews a, reviews b
			      WHERE a.overall = 5 AND b.overall = 4
			      AND text_similarity_join(a.review, b.review, 0.8)`,
			backing: "maporder: builtin/textsim.go rank iteration order",
		},
		{
			name:       "smart-theta-interval",
			mode:       ModeFUDJ,
			smartTheta: true,
			sql: `SELECT a.id, b.id FROM rides a, rides b
			      WHERE a.vendor = 1 AND b.vendor = 2
			      AND overlapping_interval(a.ride_interval, b.ride_interval, 1)`,
			backing: "stateless split routing: theta.go deals a split bucket's records by (source, position)",
		},
	}

	run := func(t *testing.T, mode JoinMode, smartTheta bool, sql string) []byte {
		// A fresh database per execution: fresh map instances (fresh
		// iteration seeds), fresh cluster state.
		db := newTestDB(t)
		db.RegisterBuiltinJoin("overlapping_interval", BuiltinJoinFunc(builtin.IntervalOIP))
		db.RegisterBuiltinJoin("text_similarity_join", BuiltinJoinFunc(builtin.TextSimilarity))
		db.MustConfigure(WithJoinMode(mode), WithSmartTheta(smartTheta))
		res := mustQuery(t, db, sql)
		if len(res.Rows) == 0 {
			t.Fatalf("query produced no rows: %s", sql)
		}
		return types.EncodeBatch(res.Rows)
	}

	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			first := run(t, q.mode, q.smartTheta, q.sql)
			second := run(t, q.mode, q.smartTheta, q.sql)
			if !bytes.Equal(first, second) {
				t.Errorf("re-execution produced different bytes (%d vs %d); rule under test: %s",
					len(first), len(second), q.backing)
			}
		})
	}
}
