package bench

import (
	"fmt"
	"io"

	"fudj"
)

// Fig. 12: duplicate-handling strategies and the effect of local join
// optimization.
//
//	(a) text-similarity: duplicate avoidance vs elimination across sizes
//	(b) spatial: framework avoidance vs PBSM Reference Point across buckets
//	(c) spatial: FUDJ vs the advanced plane-sweep operator across buckets

func init() {
	register(Experiment{
		ID:    "fig12a",
		Title: "Duplicate handling on text-similarity: avoidance vs elimination (Fig. 12a)",
		Paper: "avoidance wins at every size, ~1.15x on average",
		Run:   runFig12a,
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "Duplicate handling on spatial: default avoidance vs Reference Point (Fig. 12b)",
		Paper: "no notable difference between the two methods",
		Run:   runFig12b,
	})
	register(Experiment{
		ID:    "fig12c",
		Title: "Local join optimization: Spatial FUDJ vs advanced plane-sweep operator (Fig. 12c)",
		Paper: "plane-sweep local join yields ~1.38x on average",
		Run:   runFig12c,
	})
}

func runFig12a(cfg Config, w io.Writer) error {
	// Threshold 0.8 keeps the joined output large enough that the
	// elimination variant's extra distinct shuffle is visible.
	sizes := []int{cfg.scaled(1000), cfg.scaled(2000), cfg.scaled(4000)}
	var rows [][]string
	for _, size := range sizes {
		e, err := newEnv(cfg, 0, 0, 0, size)
		if err != nil {
			return err
		}
		avoid := timedQuery(e.db, `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND text_similarity_join(r1.review, r2.review, 0.8)`)
		elim := timedQuery(e.db, `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
			WHERE r1.overall = 5 AND r2.overall = 4
			AND text_similarity_elim(r1.review, r2.review, 0.8)`)
		if avoid.err != nil {
			return avoid.err
		}
		if elim.err != nil {
			return elim.err
		}
		if avoid.rows != elim.rows {
			return fmt.Errorf("fig12a size %d: avoidance %d rows, elimination %d rows", size, avoid.rows, elim.rows)
		}
		const net = 100e6 // modeled 100 MB/s cluster interconnect
		avoidNet := modeledTime(avoid, net)
		elimNet := modeledTime(elim, net)
		rows = append(rows, []string{
			fmt.Sprintf("%d", size), avoid.String(), elim.String(),
			fmt.Sprintf("%d", avoid.shuffled), fmt.Sprintf("%d", elim.shuffled),
			fmtDur(avoidNet), fmtDur(elimNet),
			fmt.Sprintf("%.2fx", elimNet.Seconds()/avoidNet.Seconds()),
		})
	}
	printTable(w, []string{"reviews", "Avoid wall", "Elim wall", "avoid shuffled", "elim shuffled",
		"avoid @100MB/s", "elim @100MB/s", "modeled Elim/Avoid"}, rows)
	fmt.Fprintln(w, "  (elimination's extra distinct stage always moves more records — the")
	fmt.Fprintln(w, "   shuffled columns show it — but at this scale the join output is small")
	fmt.Fprintln(w, "   relative to the inputs, so the two strategies are near parity even")
	fmt.Fprintln(w, "   with modeled 100 MB/s network time; the paper's ~1.15x avoidance win")
	fmt.Fprintln(w, "   emerges when join output dominates, as on its 83M-review corpus)")
	return nil
}

func runFig12b(cfg Config, w io.Writer) error {
	// A polygon-polygon self-join: polygons overlap several tiles, so
	// duplicate handling has real work to do (a polygon-point join has
	// single-tile points and thus no duplicate pairs).
	grids := []int{4, 8, 16, 32, 64}
	e, err := newEnv(cfg, cfg.scaled(2500), 0, 0, 0)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, n := range grids {
		avoid := timedQuery(e.db, fmt.Sprintf(
			`SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join(a.boundary, b.boundary, %d)`, n))
		rp := timedQuery(e.db, fmt.Sprintf(
			`SELECT COUNT(*) FROM parks a, parks b WHERE spatial_join_rp(a.boundary, b.boundary, %d)`, n))
		if avoid.err != nil {
			return avoid.err
		}
		if rp.err != nil {
			return rp.err
		}
		if avoid.rows != rp.rows {
			return fmt.Errorf("fig12b grid %d: avoidance %d rows, refpoint %d rows", n, avoid.rows, rp.rows)
		}
		rows = append(rows, []string{fmt.Sprintf("%d", n), avoid.String(), rp.String()})
	}
	printTable(w, []string{"grid n", "FUDJ avoidance", "Reference Point"}, rows)
	return nil
}

func runFig12c(cfg Config, w io.Writer) error {
	grids := []int{4, 8, 16, 32, 64}
	e, err := newEnv(cfg, cfg.scaled(2000), cfg.scaled(4000), 0, 0)
	if err != nil {
		return err
	}
	// Three arms: plain FUDJ (nested verify inside each tile), FUDJ with
	// the LocalJoin plane-sweep hook (the framework-level realization of
	// the paper's future-work proposal), and the hand-built advanced
	// plane-sweep operator.
	e.db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPlaneSweep)
	var rows [][]string
	for _, n := range grids {
		q := fmt.Sprintf(
			`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, %d)`, n)
		hookQ := fmt.Sprintf(
			`SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join_sweep(p.boundary, w.location, %d)`, n)
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ))
		plain := timedQuery(e.db, q)
		hooked := timedQuery(e.db, hookQ)
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeBuiltin))
		sweep := timedQuery(e.db, q)
		e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ))
		for _, r := range []runResult{plain, hooked, sweep} {
			if r.err != nil {
				return r.err
			}
		}
		if plain.rows != sweep.rows || plain.rows != hooked.rows {
			return fmt.Errorf("fig12c grid %d: rows disagree %d/%d/%d", n, plain.rows, hooked.rows, sweep.rows)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), plain.String(), hooked.String(), sweep.String(),
			fmt.Sprintf("%.2fx", plain.elapsed.Seconds()/sweep.elapsed.Seconds()),
		})
	}
	printTable(w, []string{"grid n", "Spatial FUDJ", "FUDJ + LocalJoin sweep", "Adv. built-in sweep", "builtin speedup"}, rows)
	return nil
}
