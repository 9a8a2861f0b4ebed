// Package fudj_test exercises the library strictly through its public
// API, as an adopting application would.
package fudj_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fudj"
)

// rangeJoin defines a brand-new FUDJ through the public API: a 1-D
// overlap join over [2]int64 ranges (the quickstart example's join).
func rangeJoin() fudj.Join {
	type summary struct{ Min, Max int64 }
	type plan struct {
		Min, Width int64
		N          int
	}
	bucket := func(p plan, v int64) int {
		b := int((v - p.Min) / p.Width)
		if b < 0 {
			b = 0
		}
		if b >= p.N {
			b = p.N - 1
		}
		return b
	}
	return fudj.Wrap(fudj.Spec[[2]int64, [2]int64, summary, plan]{
		Name:       "range_overlap",
		Params:     1,
		Dedup:      fudj.DedupAvoidance,
		NewSummary: func() summary { return summary{Min: 1 << 62, Max: -(1 << 62)} },
		LocalAggLeft: func(k [2]int64, s summary) summary {
			if k[0] < s.Min {
				s.Min = k[0]
			}
			if k[1] > s.Max {
				s.Max = k[1]
			}
			return s
		},
		GlobalAgg: func(a, b summary) summary {
			if b.Min < a.Min {
				a.Min = b.Min
			}
			if b.Max > a.Max {
				a.Max = b.Max
			}
			return a
		},
		Divide: func(l, r summary, params []any) (plan, error) {
			n, ok := params[0].(int64)
			if !ok || n < 1 {
				return plan{}, fmt.Errorf("range_overlap: bad bucket count %v", params[0])
			}
			min, max := l.Min, l.Max
			if r.Min < min {
				min = r.Min
			}
			if r.Max > max {
				max = r.Max
			}
			w := (max - min + 1) / n
			if w < 1 {
				w = 1
			}
			return plan{Min: min, Width: w, N: int(n)}, nil
		},
		AssignLeft: func(k [2]int64, p plan, dst []fudj.BucketID) []fudj.BucketID {
			for b := bucket(p, k[0]); b <= bucket(p, k[1]); b++ {
				dst = append(dst, b)
			}
			return dst
		},
		Verify: func(_ fudj.BucketID, l [2]int64, _ fudj.BucketID, r [2]int64, _ plan) bool {
			return l[0] <= r[1] && l[1] >= r[0]
		},
	})
}

func TestPublicStandalone(t *testing.T) {
	j := rangeJoin()
	left := []any{[2]int64{0, 10}, [2]int64{20, 30}}
	right := []any{[2]int64{5, 25}, [2]int64{100, 110}}
	var pairs int
	stats, err := fudj.RunStandalone(j, left, right, []any{int64(4)}, func(l, r any) { pairs++ })
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 2 || stats.Results != 2 {
		t.Errorf("pairs = %d, stats = %v", pairs, stats)
	}
}

func TestPublicEndToEnd(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(2, 2))

	// Generate and load the synthetic datasets.
	parks := fudj.GenParks(1, 300)
	fires := fudj.GenWildfires(2, 600)
	if err := fudj.LoadGenerated(db, "parks", parks); err != nil {
		t.Fatal(err)
	}
	if err := fudj.LoadGenerated(db, "wildfires", fires); err != nil {
		t.Fatal(err)
	}

	// Install the shipped spatial library and create the join.
	if err := db.InstallLibrary(fudj.SpatialLibrary()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int)
		RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`); err != nil {
		t.Fatal(err)
	}

	res, err := db.Execute(`
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 16)
		GROUP BY p.id ORDER BY num_fires DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no results")
	}
	ontop, err := db.Execute(`
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE st_intersects(p.boundary, w.location)
		GROUP BY p.id ORDER BY num_fires DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fmt.Sprint(res.Rows), fmt.Sprint(ontop.Rows)
	// Row sets must agree up to ties in the sort; compare sorted strings.
	as := make([]string, len(res.Rows))
	bs := make([]string, len(ontop.Rows))
	for i := range res.Rows {
		as[i] = res.Rows[i].String()
	}
	for i := range ontop.Rows {
		bs[i] = ontop.Rows[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	if fmt.Sprint(as) != fmt.Sprint(bs) {
		t.Errorf("FUDJ and on-top disagree:\n%s\n%s", a, b)
	}
}

func TestPublicCustomJoinInEngine(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(2, 1))

	// A dataset of [start,end] ranges carried as intervals.
	schema := fudj.NewSchema(
		fudj.Field{Name: "id", Kind: fudj.KindInt64},
		fudj.Field{Name: "lo", Kind: fudj.KindInt64},
		fudj.Field{Name: "hi", Kind: fudj.KindInt64},
		fudj.Field{Name: "span", Kind: fudj.KindInterval},
	)
	var recs []fudj.Record
	for i := int64(0); i < 50; i++ {
		lo := (i * 37) % 500
		hi := lo + 20
		recs = append(recs, fudj.Record{
			fudj.NewInt64(i), fudj.NewInt64(lo), fudj.NewInt64(hi),
			fudj.NewIntervalValue(fudj.Interval{Start: lo, End: hi}),
		})
	}
	if err := db.CreateDataset("ranges", schema, recs); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallLibrary(fudj.IntervalLibrary()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN overlaps(a: interval, b: interval, n: int)
		RETURNS boolean AS "oip.IntervalJoin" AT intervaljoins`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(`SELECT COUNT(*) FROM ranges a, ranges b WHERE overlaps(a.span, b.span, 8)`)
	if err != nil {
		t.Fatal(err)
	}
	ontop, err := db.Execute(`SELECT COUNT(*) FROM ranges a, ranges b WHERE interval_overlapping(a.span, b.span)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int64() != ontop.Rows[0][0].Int64() {
		t.Errorf("FUDJ %v != on-top %v", res.Rows[0][0], ontop.Rows[0][0])
	}
	if res.Rows[0][0].Int64() < 50 {
		t.Errorf("self overlap count %v too small", res.Rows[0][0])
	}
}

func TestPublicBuiltins(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(2, 1))
	if err := fudj.LoadGenerated(db, "parks", fudj.GenParks(3, 40)); err != nil {
		t.Fatal(err)
	}
	if err := fudj.LoadGenerated(db, "wildfires", fudj.GenWildfires(4, 100)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallLibrary(fudj.SpatialLibrary()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN spatial_join(a: geometry, b: geometry, n: int)
		RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`); err != nil {
		t.Fatal(err)
	}
	db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPlaneSweep)
	q := `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 16)`

	fudjCount := mustCount(t, db, q)
	db.MustConfigure(fudj.WithJoinMode(fudj.ModeBuiltin))
	builtinCount := mustCount(t, db, q)
	if fudjCount != builtinCount {
		t.Errorf("FUDJ %d != builtin plane-sweep %d", fudjCount, builtinCount)
	}
}

// TestPublicTrajectoryJoin runs the fifth shipped library end to end:
// the trajectory closeness FUDJ against its on-top st_distance
// formulation.
func TestPublicTrajectoryJoin(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(2, 2))
	if err := fudj.LoadGenerated(db, "trips", fudj.GenTrajectories(41, 250)); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallLibrary(fudj.TrajectoryLibrary()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN traj_close(a: linestring, b: linestring, n: int, d: double)
		RETURNS boolean AS "traj.ClosenessJoin" AT trajjoins`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT a.id, b.id FROM trips a, trips b
		WHERE a.class = 1 AND b.class = 2 AND traj_close(a.route, b.route, 16, 3.0)`
	onTop := `SELECT a.id, b.id FROM trips a, trips b
		WHERE a.class = 1 AND b.class = 2 AND st_distance(a.route, b.route) <= 3.0`
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := db.Execute(onTop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("trajectory join found nothing; data too sparse")
	}
	as := make([]string, len(res.Rows))
	bs := make([]string, len(ref.Rows))
	for i := range res.Rows {
		as[i] = res.Rows[i].String()
	}
	for i := range ref.Rows {
		bs[i] = ref.Rows[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	if fmt.Sprint(as) != fmt.Sprint(bs) {
		t.Fatalf("trajectory FUDJ (%d rows) != on-top (%d rows)", len(as), len(bs))
	}
	if res.Join.Candidates >= ref.Join.Candidates {
		t.Errorf("FUDJ candidates %d >= on-top %d", res.Join.Candidates, ref.Join.Candidates)
	}
}

func TestPublicStorageRoundTrip(t *testing.T) {
	db := fudj.MustOpen(fudj.WithCluster(1, 2))
	if err := fudj.LoadGenerated(db, "parks", fudj.GenParks(5, 30)); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/parks.fudj"
	if err := fudj.SaveDataset(db, "parks", path); err != nil {
		t.Fatal(err)
	}
	if err := fudj.LoadDataset(db, "parks_copy", path); err != nil {
		t.Fatal(err)
	}
	a := mustCount(t, db, `SELECT COUNT(*) FROM parks p`)
	b := mustCount(t, db, `SELECT COUNT(*) FROM parks_copy p`)
	if a != b || a != 30 {
		t.Errorf("counts %d vs %d", a, b)
	}
	// TSV import through the public API.
	schema := fudj.NewSchema(
		fudj.Field{Name: "id", Kind: fudj.KindInt64},
		fudj.Field{Name: "score", Kind: fudj.KindFloat64},
	)
	tsv := "id\tscore\n1\t2.5\n2\t3.5\n"
	if err := fudj.ImportTSV(db, "scores", schema, strings.NewReader(tsv)); err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, db, `SELECT COUNT(*) FROM scores s`); got != 2 {
		t.Errorf("imported rows = %d", got)
	}
}

func mustCount(t *testing.T, db *fudj.DB, q string) int64 {
	t.Helper()
	res, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int64()
}
