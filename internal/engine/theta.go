package engine

import (
	"runtime"
	"sort"
	"sync"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/types"
)

// runSmartTheta implements the balanced theta bucket-matching operator
// the paper proposes as future work (§VIII) to lift the interval
// join's scalability limit. Instead of broadcasting one whole side:
//
//  1. gather per-bucket record counts from both sides (tiny: one count
//     per distinct bucket id),
//  2. enumerate, in parallel, which right buckets each left bucket
//     matches, and greedily assign each left bucket — with cost
//     |b1| * Σ|matching b2| — to the least-loaded partition,
//  3. route each left record to the single partition owning its
//     bucket, and multicast each right record only to the partitions
//     owning at least one matching left bucket,
//  4. each partition joins its owned left buckets against the matching
//     right buckets it received.
//
// Both routes are pure functions of the record and its position in
// its source partition, so the operator crosses the same shuffle
// barrier as the other layouts: a lost partition's input is rebuilt
// by replaying the routes over the surviving pre-shuffle data.
//
// Every matched pair is processed exactly once (at the owner of its
// left bucket), so no result is produced twice.
func (db *Database) runSmartTheta(clus *cluster.Cluster, mem *memState, rcv *stepRecovery, join core.Join,
	combineBuckets combineFn,
	lAssigned, rAssigned cluster.Data) (cluster.Data, error) {

	countBuckets := func(data cluster.Data) (map[int]int64, error) {
		parts, err := cluster.RunValues(clus, data, func(_ int, in []types.Record) (map[int]int64, error) {
			m := make(map[int]int64)
			for _, r := range in {
				m[int(r[0].Int64())]++
			}
			return m, nil
		})
		if err != nil {
			return nil, err
		}
		acc := make(map[int]int64)
		for _, m := range parts {
			for b, n := range m {
				acc[b] += n
			}
		}
		return acc, nil
	}
	lCounts, err := countBuckets(lAssigned)
	if err != nil {
		return nil, err
	}
	rCounts, err := countBuckets(rAssigned)
	if err != nil {
		return nil, err
	}
	lIDs := sortedKeys(lCounts)
	rIDs := sortedKeys(rCounts)

	// Parallel enumeration: matches[i] lists the right buckets matching
	// lIDs[i]. MATCH implementations are required to be pure, so this
	// fan-out is safe. Each worker runs under a panic guard — a MATCH
	// panic in a bare goroutine would kill the whole process instead of
	// failing the query.
	name := join.Descriptor().Name
	matches := make([][]int, len(lIDs))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(lIDs) + workers - 1) / workers
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(lIDs) {
			hi = len(lIDs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer core.CatchPanic(name, "match", -1, nil, &workerErrs[w])
			for i := lo; i < hi; i++ {
				for _, b2 := range rIDs {
					if join.Match(lIDs[i], b2) {
						matches[i] = append(matches[i], b2)
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, werr := range workerErrs {
		if werr != nil {
			return nil, werr
		}
	}

	// Greedy longest-processing-time assignment of left buckets. A hot
	// bucket whose cost exceeds the per-partition fair share is split:
	// it gets several owner partitions and its records are dealt over
	// them by position, so skewed workloads (the interval join's rush
	// hours) cannot produce a straggler. Each left *record* still lands
	// on exactly one partition, so no pair is produced twice.
	type task struct {
		idx  int // position in lIDs
		cost int64
	}
	var totalCost int64
	tasks := make([]task, 0, len(lIDs))
	for i, b1 := range lIDs {
		var rhs int64
		for _, b2 := range matches[i] {
			rhs += rCounts[b2]
		}
		if rhs == 0 {
			continue // no matching right bucket: drop the left bucket
		}
		cost := lCounts[b1] * rhs
		totalCost += cost
		tasks = append(tasks, task{idx: i, cost: cost})
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].cost != tasks[j].cost {
			return tasks[i].cost > tasks[j].cost
		}
		return lIDs[tasks[i].idx] < lIDs[tasks[j].idx]
	})
	p := clus.Partitions()
	fairShare := totalCost/int64(p) + 1
	load := make([]int64, p)
	lOwners := make(map[int][]int, len(tasks)) // left bucket -> owner partitions
	ownedMatches := make([]map[int][]int, p)   // partition -> b1 -> matching b2 list
	rDest := make(map[int][]int)               // right bucket -> partitions (deduped)
	rSeen := make(map[int]map[int]bool)
	assign := func(b1 int, b2s []int, cost int64) {
		best := 0
		for i := 1; i < p; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best] += cost
		lOwners[b1] = append(lOwners[b1], best)
		if ownedMatches[best] == nil {
			ownedMatches[best] = make(map[int][]int)
		}
		ownedMatches[best][b1] = b2s
		for _, b2 := range b2s {
			s, ok := rSeen[b2]
			if !ok {
				s = make(map[int]bool)
				rSeen[b2] = s
			}
			if !s[best] {
				s[best] = true
				rDest[b2] = append(rDest[b2], best)
			}
		}
	}
	for _, t := range tasks {
		b1 := lIDs[t.idx]
		splits := int(t.cost / fairShare)
		if splits < 1 {
			splits = 1
		}
		if splits > p {
			splits = p
		}
		share := t.cost / int64(splits)
		for s := 0; s < splits; s++ {
			assign(b1, matches[t.idx], share)
		}
	}

	// Route: left record i of source partition src goes to owner
	// (src+i) mod len(owners) of its bucket — a pure function of its
	// position, like ExchangeRandom, so re-execution and recovery
	// replay the same split. Right records multicast to all partitions
	// owning a matching left bucket.
	lRoute := func(src, i int, r types.Record, dst []int) []int {
		if owners := lOwners[int(r[0].Int64())]; len(owners) > 0 {
			dst = append(dst, owners[(src+i)%len(owners)])
		}
		return dst
	}
	rRoute := func(_, _ int, r types.Record, dst []int) []int {
		return append(dst, rDest[int(r[0].Int64())]...)
	}
	lRouted, err := clus.ExchangeMulti(lAssigned, lRoute)
	if err != nil {
		return nil, err
	}
	rRouted, err := clus.ExchangeMulti(rAssigned, rRoute)
	if err != nil {
		return nil, err
	}
	// Shuffle barrier: both routed sides are durable per partition.
	err = shuffleBarrier(rcv,
		shuffleSide{name: "left", data: lRouted, pre: lAssigned, route: lRoute},
		shuffleSide{name: "right", data: rRouted, pre: rAssigned, route: rRoute})
	if err != nil {
		return nil, err
	}

	// Each partition joins its owned pairs.
	return clus.Run(lRouted, func(part int, in []types.Record) (out []types.Record, err error) {
		// Registered before CatchPanic so it observes the final err.
		defer func() {
			if err == nil {
				rcv.markDone("combine", part)
			}
		}()
		defer core.CatchPanic(name, "combine", part, nil, &err)
		if mem != nil {
			// Memory-bounded owned-pair join: invert this partition's
			// owned (b1 -> b2s) table so probe records route to their
			// matching build buckets, then run the budgeted combiner.
			rev := make(map[int][]int)
			for b1, b2s := range ownedMatches[part] {
				for _, b2 := range b2s {
					rev[b2] = append(rev[b2], b1)
				}
			}
			for _, b1s := range rev {
				sort.Ints(b1s)
			}
			matcher := func(b2 int, _ []int) []int { return rev[b2] }
			return boundedCombine(mem, name, part, in, rRouted[part], matcher, combineBuckets)
		}
		lBuckets := groupByBucket(in)
		rBuckets := groupByBucket(rRouted[part])
		for _, b1 := range sortedIDs(lBuckets) {
			ls := lBuckets[b1]
			for _, b2 := range ownedMatches[part][b1] {
				if rs, ok := rBuckets[b2]; ok {
					out = combineBuckets(out, b1, ls, b2, rs)
				}
			}
		}
		return out, nil
	})
}

func sortedKeys(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
