package bench

import (
	"fmt"
	"io"

	"fudj"
)

// Fig. 10: query execution time vs number of cores, FUDJ vs built-in,
// for all three joins. The paper sweeps 12→144 cores on 12 nodes; the
// harness sweeps total worker partitions at laptop scale and reports
// both wall time and MaxBusy — the per-partition makespan, which keeps
// scaling even after wall time saturates the host's physical cores.

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Scalability: execution time vs cores (Fig. 10)",
		Paper: "spatial and text-similarity scale with cores; interval limited by theta matching; FUDJ tracks built-in",
		Run:   runFig10,
	})
}

func runFig10(cfg Config, w io.Writer) error {
	type workload struct {
		name  string
		mk    func(c Config) (*env, error)
		query string
	}
	workloads := []workload{
		{
			name: "spatial (grid 32)",
			mk: func(c Config) (*env, error) {
				return newEnv(c, c.scaled(2000), c.scaled(4000), 0, 0)
			},
			query: `SELECT COUNT(*) FROM parks p, wildfires w WHERE spatial_join(p.boundary, w.location, 32)`,
		},
		{
			name: "interval (1000 granules)",
			mk: func(c Config) (*env, error) {
				return newEnv(c, 0, 0, c.scaled(6000), 0)
			},
			query: `SELECT COUNT(*) FROM nyctaxi n1, nyctaxi n2
				WHERE n1.vendor = 1 AND n2.vendor = 2
				AND overlapping_interval(n1.ride_interval, n2.ride_interval, 1000)`,
		},
		{
			name: "text-similarity (t=0.9)",
			mk: func(c Config) (*env, error) {
				return newEnv(c, 0, 0, 0, c.scaled(6000))
			},
			query: `SELECT COUNT(*) FROM amazonreview r1, amazonreview r2
				WHERE r1.overall = 5 AND r2.overall = 4
				AND text_similarity_join(r1.review, r2.review, 0.9)`,
		},
	}
	// Scaled-down core sweep mirroring the paper's 12/48/96/144.
	coreSweep := []int{1, 2, 4, 6}

	for _, wl := range workloads {
		fmt.Fprintf(w, "-- Fig. 10: %s --\n", wl.name)
		var rows [][]string
		for _, cores := range coreSweep {
			c := cfg
			c.Cores = cores
			e, err := wl.mk(c)
			if err != nil {
				return err
			}
			fudjRun := timedQuery(e.db, wl.query)
			if fudjRun.err != nil {
				return fudjRun.err
			}
			e.db.MustConfigure(fudj.WithJoinMode(fudj.ModeBuiltin))
			builtinRun := timedQuery(e.db, wl.query)
			if builtinRun.err != nil {
				return builtinRun.err
			}
			if fudjRun.rows != builtinRun.rows {
				return fmt.Errorf("fig10 %s cores=%d: FUDJ %d rows, built-in %d rows",
					wl.name, cores, fudjRun.rows, builtinRun.rows)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", cfg.Nodes*cores),
				fudjRun.String(), fmtDur(fudjRun.maxBusy),
				builtinRun.String(), fmtDur(builtinRun.maxBusy),
			})
		}
		printTable(w, []string{"cores", "FUDJ wall", "FUDJ makespan", "Built-in wall", "Built-in makespan"}, rows)
	}
	return nil
}
