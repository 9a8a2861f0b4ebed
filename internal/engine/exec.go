package engine

import (
	"context"
	"fmt"
	"sort"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/sched"
	"fudj/internal/storage"
	"fudj/internal/trace"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// run executes a planned query on a fresh cluster instance. When
// tracing is enabled it grows a span tree mirroring the executed plan
// (query → operator → phase → partition task); all timing flows
// through the database's injected clock, never time.Now. It reads the
// settings snapshot the plan was built under, so a Configure call
// after submission never changes the query. The admission ticket
// carries the query's memory lease: under a shared pool it overrides
// the configured per-query budget (the lease IS the budget).
func (p *queryPlan) run(ctx context.Context, db *Database, eo execOpts, ticket *sched.Ticket) (*Result, error) {
	set := p.set
	start := db.clock.Now()
	var root *trace.Span
	if eo.trace {
		root = trace.NewSpan(db.clock, "query")
	}
	clus := cluster.New(set.clusterCfg)
	clus.SetClock(db.clock)
	clus.SetSpan(root)
	clus.SetContext(ctx)
	clus.SetBatchSize(set.batchSize)
	if set.retryPol != nil {
		clus.SetRetryPolicy(*set.retryPol)
	}
	if set.faultCfg != nil {
		// A fresh injector per query: fault decisions depend only on the
		// seed and the fault site, so re-running the query replays the
		// exact same failures.
		clus.SetFaults(cluster.NewFaultInjector(*set.faultCfg))
	}
	counters := &statsCounters{}

	// Memory-bounded execution: split the query budget over partitions,
	// bound the shuffle inboxes, and stand up the spill directory the
	// COMBINE phases degrade into when a build exceeds its share. The
	// budget is the admission lease when a pool granted one.
	budget := set.memBudget
	if ticket != nil && ticket.Lease() > 0 {
		budget = ticket.Lease()
	}
	var mem *memState
	if budget > 0 {
		clus.SetMemoryBudget(budget)
		var cleanup func()
		var err error
		mem, cleanup, err = newMemState(clus)
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	// Checkpointed execution: a node can only be lost at a phase
	// barrier through an injected barrier kill, so the recovery manager
	// and its per-query checkpoint store are attached exactly when the
	// fault config arms one. The store is swept at teardown so no
	// checkpoint file outlives its query; fault-free queries write no
	// checkpoints and cross no barriers.
	var rm *cluster.RecoveryManager
	if fc := set.faultCfg; fc != nil && (fc.BarrierKillProb > 0 || len(fc.BarrierKills) > 0) {
		store, err := storage.NewCheckpointStore()
		if err != nil {
			return nil, err
		}
		rm = clus.NewRecoveryManager(store)
		defer rm.Sweep()
	}

	// Scans with pushed-down filters.
	inputs := make([]cluster.Data, len(p.scans))
	schemas := make([]*types.Schema, len(p.scans))
	for i, s := range p.scans {
		sp := root.Child("scan " + s.ref.Dataset)
		prev := clus.SetSpan(sp)
		data := clus.Scatter(s.ds.Records)
		if s.filter != nil {
			pred, err := expr.Compile(s.filter, s.schema)
			if err != nil {
				return nil, err
			}
			data, err = filterData(clus, data, pred)
			if err != nil {
				return nil, err
			}
		}
		sp.Add("rows.out", int64(data.Rows()))
		sp.End()
		clus.SetSpan(prev)
		inputs[i] = data
		schemas[i] = s.schema
	}

	// Left-deep joins.
	cur := inputs[0]
	curSchema := schemas[0]
	for i, step := range p.joins {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		right := inputs[i+1]
		rightSchema := schemas[i+1]
		outSchema := curSchema.Concat(rightSchema)
		name := "join " + step.kind.String()
		if step.fudj != nil {
			name += " " + step.fudj.def.Name
		}
		jsp := root.Child(name)
		prev := clus.SetSpan(jsp)
		jsp.Add("rows.in", int64(cur.Rows())+int64(right.Rows()))
		var err error
		switch step.kind {
		case joinFUDJ:
			var rcv *stepRecovery
			if rm != nil {
				rcv = &stepRecovery{rm: rm, step: i}
			}
			cur, err = db.runFUDJ(ctx, clus, counters, mem, rcv, jsp, step.fudj, cur, curSchema, right, rightSchema, outSchema)
		case joinBuiltin:
			cur, err = db.runBuiltinJoin(clus, counters, step.fudj, cur, curSchema, right, rightSchema)
		case joinHash:
			cur, err = runHashJoin(clus, counters, step, cur, curSchema, right, rightSchema)
		case joinNLJ:
			cur, err = runNLJ(clus, counters, step.cond, cur, curSchema, right, rightSchema, outSchema)
		case joinCross:
			cur, err = runNLJ(clus, counters, nil, cur, curSchema, right, rightSchema, outSchema)
		default:
			err = fmt.Errorf("engine: unknown join kind %v", step.kind)
		}
		if err != nil {
			return nil, err
		}
		curSchema = outSchema
		if len(step.residual) > 0 {
			pred, err := expr.Compile(expr.JoinConjuncts(step.residual), curSchema)
			if err != nil {
				return nil, err
			}
			if cur, err = filterData(clus, cur, pred); err != nil {
				return nil, err
			}
		}
		jsp.Add("rows.out", int64(cur.Rows()))
		jsp.End()
		clus.SetSpan(prev)
	}

	// Residual filter.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(p.post) > 0 {
		fsp := root.Child("filter")
		prev := clus.SetSpan(fsp)
		pred, err := expr.Compile(expr.JoinConjuncts(p.post), curSchema)
		if err != nil {
			return nil, err
		}
		if cur, err = filterData(clus, cur, pred); err != nil {
			return nil, err
		}
		fsp.Add("rows.out", int64(cur.Rows()))
		fsp.End()
		clus.SetSpan(prev)
	}

	// Aggregation or projection.
	outName := "project"
	if len(p.aggs) > 0 || len(p.groupBy) > 0 {
		outName = "aggregate"
	}
	osp := root.Child(outName)
	prevOut := clus.SetSpan(osp)
	var rows []types.Record
	var err error
	if len(p.aggs) > 0 || len(p.groupBy) > 0 {
		rows, err = p.runGroupBy(clus, cur, curSchema)
		if err == nil && p.having != nil {
			rows, err = p.filterRows(rows)
		}
	} else {
		rows, err = p.runProject(clus, cur, curSchema)
	}
	if err != nil {
		return nil, err
	}
	if p.distinct {
		rows = distinctRows(rows)
	}

	// Order and limit at the coordinator.
	if len(p.orderBy) > 0 {
		if err := p.sortRows(rows); err != nil {
			return nil, err
		}
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	osp.Add("rows.out", int64(len(rows)))
	osp.End()
	clus.SetSpan(prevOut)
	root.End()

	// Flush the engine's hot-path counters into the registry, then take
	// one consistent snapshot of every cluster counter (a field-by-field
	// read could mix epochs if anything were still in flight).
	reg := clus.Metrics()
	counters.flush(reg)
	var schedStats SchedStats
	if ticket != nil {
		stampSched(reg, root, ticket, db.sched.Stats())
		schedStats = SchedStats{
			QueueWait:  ticket.Wait(),
			LeaseBytes: ticket.Lease(),
			Priority:   ticket.Priority(),
		}
	}
	m := reg.Snapshot()
	join := counters.snapshot()
	join.Batches = m.Batches
	join.BatchRows = m.BatchRows
	join.BatchPoolGets = m.BatchPoolGets
	join.BatchPoolHits = m.BatchPoolHits
	res := &Result{
		Schema:  p.outSchema,
		Rows:    rows,
		Plan:    p.explain(),
		Elapsed: db.clock.Now().Sub(start),
		Join:    join,
		Cluster: ClusterStats{
			BytesShuffled:   m.BytesShuffled,
			RecordsShuffled: m.RecordsShuffled,
			BytesBroadcast:  m.BytesBroadcast,
			Tasks:           m.Tasks,
			MaxBusy:         m.MaxBusy,
			TotalBusy:       m.TotalBusy,
		},
		Faults: FaultStats{
			Retries:              m.Retries,
			Recovered:            m.Recovered,
			Speculative:          m.Speculative,
			CorruptionsHealed:    m.CorruptHealed,
			BarrierKills:         m.BarrierKills,
			CheckpointBytes:      m.CheckpointBytes,
			PartitionsRecovered:  m.CheckpointRecovered,
			CheckpointsDiscarded: m.CheckpointDiscarded,
		},
		Memory: MemoryStats{
			Peak:         m.PeakMemory,
			PeakInput:    m.PeakInput,
			BytesSpilled: m.BytesSpilled,
			SpillRuns:    m.SpillRuns,
			BucketsSplit: m.BucketsSplit,
			Backpressure: m.Backpressure,
		},
		Sched:   schedStats,
		Trace:   root,
		Metrics: reg.Values(),
	}
	return res, nil
}

// run is invoked from Database.ExecuteStmt.
func (db *Database) run(ctx context.Context, p *queryPlan, eo execOpts, ticket *sched.Ticket) (*Result, error) {
	return p.run(ctx, db, eo, ticket)
}

func filterData(clus *cluster.Cluster, data cluster.Data, pred expr.Evaluator) (cluster.Data, error) {
	return clus.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
		var out []types.Record
		for _, rec := range in {
			v, err := pred(rec)
			if err != nil {
				return nil, err
			}
			if v.Kind() == types.KindBool && v.Bool() {
				out = append(out, rec)
			}
		}
		return out, nil
	})
}

// runNLJ is the on-top strategy: broadcast the smaller side,
// nested-loop locally with the full predicate (nil predicate = cross
// join). Output columns keep the left-then-right order regardless of
// which side was broadcast.
func runNLJ(clus *cluster.Cluster, counters *statsCounters, cond expr.Expr,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema, outSchema *types.Schema) (cluster.Data, error) {

	var pred expr.Evaluator
	if cond != nil {
		var err error
		pred, err = expr.Compile(cond, outSchema)
		if err != nil {
			return nil, err
		}
	}
	// Broadcast the smaller input so network volume and per-partition
	// build size stay bounded by min(|L|, |R|).
	broadcastLeft := left.Rows() < right.Rows()
	small, big := right, left
	if broadcastLeft {
		small, big = left, right
	}
	replicated, err := clus.Replicate(small)
	if err != nil {
		return nil, err
	}
	lw := leftSchema.Len()
	return clus.Run(big, func(part int, in []types.Record) ([]types.Record, error) {
		var out []types.Record
		smallRecs := replicated[part]
		pair := make(types.Record, leftSchema.Len()+rightSchema.Len())
		for _, b := range in {
			if broadcastLeft {
				copy(pair[lw:], b)
			} else {
				copy(pair, b)
			}
			for _, s := range smallRecs {
				if broadcastLeft {
					copy(pair[:lw], s)
				} else {
					copy(pair[lw:], s)
				}
				counters.candidates.Add(1)
				if pred != nil {
					v, err := pred(pair)
					if err != nil {
						return nil, err
					}
					if v.Kind() != types.KindBool || !v.Bool() {
						continue
					}
				}
				counters.verified.Add(1)
				counters.joinOutput.Add(1)
				out = append(out, pair.Clone())
			}
		}
		return out, nil
	})
}

// runHashJoin shuffles both sides by key hash and joins locally.
func runHashJoin(clus *cluster.Cluster, counters *statsCounters, step joinStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (cluster.Data, error) {

	lkey, err := expr.Compile(step.hashL, leftSchema)
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(step.hashR, rightSchema)
	if err != nil {
		return nil, err
	}
	hashOf := func(ev expr.Evaluator) func(types.Record) uint64 {
		return func(r types.Record) uint64 {
			v, err := ev(r)
			if err != nil {
				return 0
			}
			return v.Hash()
		}
	}
	lShuf, err := clus.ExchangeHash(left, hashOf(lkey))
	if err != nil {
		return nil, err
	}
	rShuf, err := clus.ExchangeHash(right, hashOf(rkey))
	if err != nil {
		return nil, err
	}
	return clus.Run(lShuf, func(part int, in []types.Record) ([]types.Record, error) {
		// Build on the right partition.
		build := make(map[uint64][]types.Record)
		keys := make(map[uint64][]types.Value)
		for _, r := range rShuf[part] {
			v, err := rkey(r)
			if err != nil {
				return nil, err
			}
			h := v.Hash()
			build[h] = append(build[h], r)
			keys[h] = append(keys[h], v)
		}
		var out []types.Record
		for _, l := range in {
			v, err := lkey(l)
			if err != nil {
				return nil, err
			}
			h := v.Hash()
			for i, r := range build[h] {
				counters.candidates.Add(1)
				if !v.Equal(keys[h][i]) {
					continue
				}
				counters.verified.Add(1)
				counters.joinOutput.Add(1)
				joined := make(types.Record, 0, len(l)+len(r))
				joined = append(append(joined, l...), r...)
				out = append(out, joined)
			}
		}
		return out, nil
	})
}

// runBuiltinJoin dispatches to a registered hand-built operator.
func (db *Database) runBuiltinJoin(clus *cluster.Cluster, counters *statsCounters, f *fudjStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema) (out cluster.Data, err error) {

	op := f.builtin
	if op == nil {
		return nil, fmt.Errorf("engine: no built-in operator registered for %q", f.def.Name)
	}
	lkey, err := expr.Compile(f.leftKey, leftSchema)
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(f.rightKey, rightSchema)
	if err != nil {
		return nil, err
	}
	defer core.CatchPanic(f.def.Name, "builtin", -1, nil, &err)
	out, err = op(clus, left, lkey, right, rkey, f.params)
	if err != nil {
		return nil, err
	}
	counters.joinOutput.Add(int64(out.Rows()))
	return out, nil
}

// runProject evaluates the projection list per partition and gathers.
func (p *queryPlan) runProject(clus *cluster.Cluster, data cluster.Data, schema *types.Schema) ([]types.Record, error) {
	evals := make([]expr.Evaluator, len(p.cols))
	for i, c := range p.cols {
		ev, err := expr.Compile(c.e, schema)
		if err != nil {
			return nil, err
		}
		evals[i] = ev
	}
	out, err := clus.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
		res := make([]types.Record, 0, len(in))
		for _, rec := range in {
			row := make(types.Record, len(evals))
			for i, ev := range evals {
				v, err := ev(rec)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			res = append(res, row)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return out.Flatten(), nil
}

// filterRows applies the (rewritten) HAVING predicate over the
// aggregation output at the coordinator.
func (p *queryPlan) filterRows(rows []types.Record) ([]types.Record, error) {
	pred, err := expr.Compile(p.having, p.outSchema)
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, row := range rows {
		v, err := pred(row)
		if err != nil {
			return nil, err
		}
		if v.Kind() == types.KindBool && v.Bool() {
			out = append(out, row)
		}
	}
	return out, nil
}

// distinctRows removes duplicate output rows, preserving first-seen
// order. A row's identity is its wire encoding, built in one reused
// encoder: exact, unlike a 64-bit hash, which could merge two distinct
// rows on a collision.
func distinctRows(rows []types.Record) []types.Record {
	seen := make(map[string]bool, len(rows))
	e := wire.NewEncoder(64)
	out := rows[:0]
	for _, row := range rows {
		e.Reset()
		row.MarshalWire(e)
		if seen[string(e.Bytes())] {
			continue
		}
		seen[string(e.Bytes())] = true
		out = append(out, row)
	}
	return out
}

// sortRows orders the final rows by the ORDER BY keys, which are
// compiled against the output schema (so projection aliases work).
func (p *queryPlan) sortRows(rows []types.Record) error {
	evals := make([]expr.Evaluator, len(p.orderBy))
	for i, o := range p.orderBy {
		ev, err := expr.Compile(o.e, p.outSchema)
		if err != nil {
			return err
		}
		evals[i] = ev
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, ev := range evals {
			vi, err := ev(rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := ev(rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c := vi.Compare(vj)
			if c == 0 {
				continue
			}
			if p.orderBy[k].desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
