package engine

import (
	"context"
	"fmt"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/expr"
	"fudj/internal/trace"
	"fudj/internal/types"
)

// runFUDJ executes the Fig. 8 FUDJ plan for one join step:
//
//	SUMMARIZE  local aggregate per partition → encoded summaries to the
//	           coordinator → global aggregate → DIVIDE → encoded PPlan
//	           broadcast to all nodes
//	PARTITION  assign each record to buckets (unnest) and shuffle:
//	           hash exchange on bucket id for default-match joins,
//	           broadcast + random partitioning for theta (multi-join)
//	COMBINE    per-bucket candidate pairs → VERIFY → duplicate handling
//
// Records travel through the pipeline extended with two leading
// columns, [bucket_id, key, fields...], so verify never recomputes key
// expressions per candidate pair. Under DedupElimination a third
// leading column carries a globally unique row id.
// When rcv is non-nil, the step runs with durable phase barriers: the
// broadcast plan and every partition's post-shuffle input are
// checkpointed, and node deaths injected at a barrier recover from
// those checkpoints in place (see recover.go).
func (db *Database) runFUDJ(ctx context.Context, clus *cluster.Cluster, counters *statsCounters, mem *memState, rcv *stepRecovery, jsp *trace.Span, f *fudjStep,
	left cluster.Data, leftSchema *types.Schema,
	right cluster.Data, rightSchema *types.Schema, outSchema *types.Schema) (cluster.Data, error) {

	join := f.def.New()
	desc := join.Descriptor()

	lkey, err := expr.Compile(f.leftKey, leftSchema)
	if err != nil {
		return nil, err
	}
	rkey, err := expr.Compile(f.rightKey, rightSchema)
	if err != nil {
		return nil, err
	}
	params := make([]any, len(f.params))
	for i, v := range f.params {
		params[i] = v.Native()
	}

	// ---- SUMMARIZE ----
	sumSpan := jsp.Child("SUMMARIZE")
	prevSpan := clus.SetSpan(sumSpan)
	var shuf0, bcast0 int64
	if sumSpan != nil {
		shuf0, bcast0 = clus.Metrics().BytesShuffled(), clus.Metrics().BytesBroadcast()
	}
	phaseStart := db.clock.Now()
	summarize := func(side core.Side, data cluster.Data, key expr.Evaluator) (core.Summary, error) {
		locals, err := cluster.RunValues(clus, data, func(part int, in []types.Record) (buf []byte, err error) {
			rec := -1
			defer core.CatchPanic(f.def.Name, "summarize", part, &rec, &err)
			s := join.NewSummary(side)
			for i, r := range in {
				rec = i
				v, err := key(r)
				if err != nil {
					return nil, err
				}
				s = join.LocalAggregate(side, v.Native(), s)
			}
			rec = -1
			return join.EncodeSummary(s)
		})
		if err != nil {
			return nil, err
		}
		for part := range data {
			rcv.markDone("summarize", part)
		}
		// Ship the encoded local summaries to the coordinator, then
		// merge them with the global aggregate (guarded: the merge runs
		// user code at the coordinator).
		clus.GatherBytes(locals)
		return func() (global core.Summary, err error) {
			defer core.CatchPanic(f.def.Name, "summarize", -1, nil, &err)
			global = join.NewSummary(side)
			for _, buf := range locals {
				counters.stateBytes.Add(int64(len(buf)))
				s, err := join.DecodeSummary(buf)
				if err != nil {
					return nil, err
				}
				global = join.GlobalAggregate(side, global, s)
			}
			return global, nil
		}()
	}

	ls, err := summarize(core.Left, left, lkey)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: summarize left: %w", f.def.Name, err)
	}
	var rs core.Summary
	if f.selfJoin && desc.SymmetricSummarize {
		rs = ls // self-join optimization: replicate the summary (§VI-C)
	} else {
		rs, err = summarize(core.Right, right, rkey)
		if err != nil {
			return nil, fmt.Errorf("fudj %s: summarize right: %w", f.def.Name, err)
		}
	}

	// ---- DIVIDE ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan, planBuf, err := func() (plan core.PPlan, planBuf []byte, err error) {
		defer core.CatchPanic(f.def.Name, "divide", -1, nil, &err)
		plan, err = join.Divide(ls, rs, params)
		if err != nil {
			return nil, nil, fmt.Errorf("fudj %s: divide: %w", f.def.Name, err)
		}
		planBuf, err = join.EncodePlan(plan)
		if err != nil {
			return nil, nil, fmt.Errorf("fudj %s: encode plan: %w", f.def.Name, err)
		}
		return plan, planBuf, nil
	}()
	if err != nil {
		return nil, err
	}
	counters.stateBytes.Add(int64(len(planBuf)))
	clus.Broadcast(planBuf)
	// Plan barrier: the broadcast plan becomes durable, and a node
	// killed here re-reads it instead of forcing SUMMARIZE to re-run.
	planBuf, err = planBarrier(clus, rcv, planBuf)
	if err != nil {
		return nil, err
	}
	// Every node decodes its own copy, as it would on a real cluster.
	plan, err = func() (plan core.PPlan, err error) {
		defer core.CatchPanic(f.def.Name, "divide", -1, nil, &err)
		plan, err = join.DecodePlan(planBuf)
		if err != nil {
			return nil, fmt.Errorf("fudj %s: decode plan: %w", f.def.Name, err)
		}
		return plan, nil
	}()
	if err != nil {
		return nil, err
	}

	counters.summarize.Add(int64(db.clock.Now().Sub(phaseStart)))
	if sumSpan != nil {
		sumSpan.Add("rows.in", int64(left.Rows())+int64(right.Rows()))
		sumSpan.Add("state.bytes", int64(len(planBuf)))
		sumSpan.Add("broadcast.bytes", clus.Metrics().BytesBroadcast()-bcast0)
	}
	sumSpan.End()
	partSpan := jsp.Child("PARTITION")
	clus.SetSpan(partSpan)
	phaseStart = db.clock.Now()

	// ---- PARTITION (assign + unnest) ----
	// Records are extended with leading metadata columns:
	//   [bucket_id, key, (meta), original fields...]
	// where meta is a unique row id under DedupElimination, or the full
	// assign list under DedupAvoidance — carrying the list computed here
	// lets the COMBINE phase find the canonical bucket pair without
	// re-running ASSIGN per candidate pair.
	elimination := desc.Dedup == core.DedupElimination
	cacheAssign := desc.Dedup == core.DedupAvoidance
	extraCols := 2
	if elimination || cacheAssign {
		extraCols = 3
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	assign := func(side core.Side, data cluster.Data, key expr.Evaluator) (cluster.Data, error) {
		return clus.Run(data, func(part int, in []types.Record) (out []types.Record, err error) {
			rec := -1
			defer core.CatchPanic(f.def.Name, "assign", part, &rec, &err)
			var ids []core.BucketID
			for i, r := range in {
				rec = i
				v, err := key(r)
				if err != nil {
					return nil, err
				}
				ids = join.Assign(side, v.Native(), plan, ids[:0])
				var meta types.Value
				switch {
				case elimination:
					meta = types.NewInt64(int64(part)<<32 | int64(i))
				case cacheAssign:
					list := make([]types.Value, len(ids))
					for j, id := range ids {
						list[j] = types.NewInt64(int64(id))
					}
					meta = types.NewList(list)
				}
				for _, id := range ids {
					ext := make(types.Record, 0, extraCols+len(r))
					ext = append(ext, types.NewInt64(int64(id)), v)
					if extraCols == 3 {
						ext = append(ext, meta)
					}
					out = append(out, append(ext, r...))
				}
			}
			rcv.markDone("partition", part)
			return out, nil
		})
	}
	lAssigned, err := assign(core.Left, left, lkey)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: assign left: %w", f.def.Name, err)
	}
	rAssigned, err := assign(core.Right, right, rkey)
	if err != nil {
		return nil, fmt.Errorf("fudj %s: assign right: %w", f.def.Name, err)
	}

	counters.partition.Add(int64(db.clock.Now().Sub(phaseStart)))
	partSpan.Add("rows.out", int64(lAssigned.Rows())+int64(rAssigned.Rows()))
	partSpan.End()
	combSpan := jsp.Child("COMBINE")
	clus.SetSpan(combSpan)
	phaseStart = db.clock.Now()

	// ---- COMBINE ----
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	applyDedup := desc.Dedup == core.DedupAvoidance || desc.Dedup == core.DedupCustom

	// accept applies dedup to one verified candidate pair and appends
	// the joined record.
	accept := func(out []types.Record, l, r types.Record) []types.Record {
		b1 := int(l[0].Int64())
		b2 := int(r[0].Int64())
		if cacheAssign {
			// Framework avoidance using the assign lists carried through
			// the partition phase: keep only the canonical bucket pair.
			x, y, ok := core.CanonicalPair(join, listBuckets(l[2]), listBuckets(r[2]))
			if ok && (x != b1 || y != b2) {
				counters.deduped.Add(1)
				return out
			}
		} else if applyDedup && !join.Dedup(b1, l[1].Native(), b2, r[1].Native(), plan) {
			counters.deduped.Add(1)
			return out
		}
		joined := make(types.Record, 0, len(l)+len(r)-2*extraCols+2)
		if elimination {
			joined = append(joined, l[2], r[2]) // row-id pair for distinct
		}
		joined = append(joined, l[extraCols:]...)
		joined = append(joined, r[extraCols:]...)
		return append(out, joined)
	}

	// combineBuckets joins one matched bucket pair, through the join's
	// custom local algorithm when it provides one (§VII-F), or the
	// verify loop otherwise. Both paths read the groups' cached key
	// columns, so no key is boxed more than once per record.
	combineBuckets := func(out []types.Record, b1 int, ls *bucketGroup, b2 int, rs *bucketGroup) []types.Record {
		if desc.LocalJoin {
			counters.candidates.Add(int64(len(ls.recs)) * int64(len(rs.recs)))
			join.LocalJoin(b1, ls.keys, b2, rs.keys, plan, func(i, k int) {
				counters.verified.Add(1)
				out = accept(out, ls.recs[i], rs.recs[k])
			})
			return out
		}
		for i, l := range ls.recs {
			k1 := ls.keys[i]
			for k, r := range rs.recs {
				counters.candidates.Add(1)
				if !join.Verify(b1, k1, b2, rs.keys[k], plan) {
					continue
				}
				counters.verified.Add(1)
				out = accept(out, l, r)
			}
		}
		return out
	}

	var combined cluster.Data
	if desc.DefaultMatch {
		// Single-join: hash partition both sides on bucket id, then a
		// local hash join per partition (the optimizer's hash-join path).
		bucketRoute := hashRoute(clus.Partitions(), func(r types.Record) uint64 { return r[0].Hash() })
		lShuf, err := clus.ExchangeMulti(lAssigned, bucketRoute)
		if err != nil {
			return nil, err
		}
		rShuf, err := clus.ExchangeMulti(rAssigned, bucketRoute)
		if err != nil {
			return nil, err
		}
		// Shuffle barrier: every partition's bucket inputs are durable.
		// A node killed here reloads its partitions' inputs (or rebuilds
		// them from the surviving pre-shuffle data) and re-runs only
		// those partitions' COMBINE.
		err = shuffleBarrier(rcv,
			shuffleSide{name: "left", data: lShuf, pre: lAssigned, route: bucketRoute},
			shuffleSide{name: "right", data: rShuf, pre: rAssigned, route: bucketRoute})
		if err != nil {
			return nil, err
		}
		combined, err = clus.Run(lShuf, func(part int, in []types.Record) (out []types.Record, err error) {
			// Registered before CatchPanic so it observes the final err.
			defer func() {
				if err == nil {
					rcv.markDone("combine", part)
				}
			}()
			defer core.CatchPanic(f.def.Name, "combine", part, nil, &err)
			if mem != nil {
				// Memory-bounded hash build: resident buckets join
				// immediately, oversized ones spill and re-join.
				return boundedCombine(mem, f.def.Name, part, in, rShuf[part],
					func(b2 int, _ []int) []int { return []int{b2} }, combineBuckets)
			}
			lBuckets := groupByBucket(in)
			rBuckets := groupByBucket(rShuf[part])
			for _, b := range sortedIDs(lBuckets) {
				if rs, ok := rBuckets[b]; ok {
					out = combineBuckets(out, b, lBuckets[b], b, rs)
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
	} else if f.smartTheta {
		// Balanced theta (the Theta Join Operator proposed as future
		// work in §VIII): the coordinator gathers per-bucket record
		// counts, enumerates the bucket pairs MATCH accepts, assigns
		// each pair to a partition by greedy cost balancing, and records
		// travel only to partitions owning pairs that need them.
		combined, err = db.runSmartTheta(clus, mem, rcv, join, combineBuckets, lAssigned, rAssigned)
		if err != nil {
			return nil, err
		}
	} else {
		// Naive theta (the paper's measured configuration, §VII-C): no
		// partitioning property helps, so one side is broadcast and the
		// other randomly partitioned, then buckets are matched pairwise
		// through MATCH locally.
		lRepl, err := clus.Replicate(lAssigned)
		if err != nil {
			return nil, err
		}
		probeRoute := randomRoute(clus.Partitions())
		rRand, err := clus.ExchangeMulti(rAssigned, probeRoute)
		if err != nil {
			return nil, err
		}
		// Shuffle barrier for the theta layout: the replicated build
		// side and the randomly partitioned probe side are both durable
		// per partition.
		err = shuffleBarrier(rcv,
			shuffleSide{name: "left", data: lRepl, pre: lAssigned, route: replicateRoute(clus.Partitions())},
			shuffleSide{name: "right", data: rRand, pre: rAssigned, route: probeRoute})
		if err != nil {
			return nil, err
		}
		combined, err = clus.Run(rRand, func(part int, in []types.Record) (out []types.Record, err error) {
			// Registered before CatchPanic so it observes the final err.
			defer func() {
				if err == nil {
					rcv.markDone("combine", part)
				}
			}()
			defer core.CatchPanic(f.def.Name, "combine", part, nil, &err)
			if mem != nil {
				// Memory-bounded theta match table: the broadcast (build)
				// side is budget-governed; MATCH decisions are memoized
				// per probe bucket so the call count matches the
				// unbounded pairwise sweep.
				matchCache := make(map[int][]int)
				matcher := func(b2 int, buildIDs []int) []int {
					if m, ok := matchCache[b2]; ok {
						return m
					}
					var m []int
					for _, b1 := range buildIDs {
						if join.Match(b1, b2) {
							m = append(m, b1)
						}
					}
					matchCache[b2] = m
					return m
				}
				return boundedCombine(mem, f.def.Name, part, lRepl[part], in, matcher, combineBuckets)
			}
			lBuckets := groupByBucket(lRepl[part])
			rBuckets := groupByBucket(in)
			lIDs := sortedIDs(lBuckets)
			rIDs := sortedIDs(rBuckets)
			for _, b1 := range lIDs {
				for _, b2 := range rIDs {
					if !join.Match(b1, b2) {
						continue
					}
					out = combineBuckets(out, b1, lBuckets[b1], b2, rBuckets[b2])
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
	}

	// ---- duplicate elimination stage (only DedupElimination) ----
	if elimination {
		distinct, err := clus.ExchangeHash(combined, func(r types.Record) uint64 {
			return r[0].Hash() ^ (r[1].Hash() * 0x9e3779b97f4a7c15)
		})
		if err != nil {
			return nil, err
		}
		combined, err = clus.Run(distinct, func(_ int, in []types.Record) ([]types.Record, error) {
			seen := make(map[[2]int64]bool, len(in))
			var out []types.Record
			for _, rec := range in {
				pair := [2]int64{rec[0].Int64(), rec[1].Int64()}
				if seen[pair] {
					counters.deduped.Add(1)
					continue
				}
				seen[pair] = true
				out = append(out, rec[2:])
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
	}

	counters.combine.Add(int64(db.clock.Now().Sub(phaseStart)))
	if combSpan != nil {
		combSpan.Add("rows.out", int64(combined.Rows()))
		combSpan.Add("shuffle.bytes", clus.Metrics().BytesShuffled()-shuf0)
	}
	combSpan.End()
	clus.SetSpan(prevSpan)
	counters.joinOutput.Add(int64(combined.Rows()))
	if got, want := schemaWidth(combined), outSchema.Len(); got >= 0 && got != want {
		return nil, fmt.Errorf("fudj %s: joined record has %d fields, schema wants %d", f.def.Name, got, want)
	}
	return combined, nil
}

// listBuckets decodes a cached assign list column.
func listBuckets(v types.Value) []core.BucketID {
	list := v.List()
	out := make([]core.BucketID, len(list))
	for i, e := range list {
		out[i] = int(e.Int64())
	}
	return out
}

// schemaWidth returns the field count of the first record, or -1 when
// the data is empty.
func schemaWidth(d cluster.Data) int {
	for _, p := range d {
		if len(p) > 0 {
			return len(p[0])
		}
	}
	return -1
}
