package main

import (
	"fmt"

	"fudj"
)

// digest is an order-independent fingerprint of a multiset of id
// pairs: the pair count and the wrapping sum of a strong per-pair
// hash. Reordering rows leaves it unchanged; losing, duplicating or
// altering a pair changes it.
type digest struct {
	N   int64
	Sum uint64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// addN adds n copies of the pair (a, b).
func (d *digest) addN(a, b int64, n int64) {
	h := mix64(mix64(uint64(a)) ^ (uint64(b) * 0x9e3779b97f4a7c15))
	d.N += n
	d.Sum += h * uint64(n)
}

// expected is one query's reference result.
type expected struct {
	count int64  // COUNT(*) value, or the number of output rows
	pairs digest // id-pair multiset, for pair queries
}

// sideKeys returns one side's join keys and ids, after the side's
// filter, straight from the generated records.
func sideKeys(ds *fudj.GeneratedDataset, s side) (keys []any, ids []int64, err error) {
	if ds == nil {
		return nil, nil, fmt.Errorf("no dataset %s", s.dataset)
	}
	key, id := ds.Schema.Index(s.key), ds.Schema.Index("id")
	filter := -1
	if s.filterCol != "" {
		filter = ds.Schema.Index(s.filterCol)
	}
	if key < 0 || id < 0 || (s.filterCol != "" && filter < 0) {
		return nil, nil, fmt.Errorf("dataset %s lacks a column of %+v", s.dataset, s)
	}
	for _, r := range ds.Records {
		if filter >= 0 && r[filter].Int64() != s.filterVal {
			continue
		}
		keys = append(keys, r[key].Native())
		ids = append(ids, r[id].Int64())
	}
	return keys, ids, nil
}

// reference computes q's expected result on one data instance with
// fudj.RunStandalone, the reference semantics, over the same generated
// records the engine holds.
func reference(q *query, data map[string]*fudj.GeneratedDataset, inst int) (expected, error) {
	ctor, err := q.lib().Resolve(q.class)
	if err != nil {
		return expected{}, err
	}
	lk, lid, err := sideKeys(data[instName(q.left.dataset, inst)], q.left)
	if err != nil {
		return expected{}, err
	}
	rk, rid, err := sideKeys(data[instName(q.right.dataset, inst)], q.right)
	if err != nil {
		return expected{}, err
	}
	var want expected
	// Standalone emits join keys, not records; equal keys on several
	// records emit once per record pair. Counting emits per key pair
	// and expanding each key to its ids rebuilds the id-pair multiset.
	type keyPair struct{ l, r any }
	emits := make(map[keyPair]int64)
	_, err = fudj.RunStandalone(ctor(), lk, rk, q.params, func(l, r any) {
		want.count++
		if q.pairs {
			emits[keyPair{l, r}]++
		}
	})
	if err != nil {
		return expected{}, fmt.Errorf("%s: standalone reference: %w", q.name, err)
	}
	if !q.pairs {
		return want, nil
	}
	lids, rids := idsByKey(lk, lid), idsByKey(rk, rid)
	for kp, c := range emits {
		a, b := lids[kp.l], rids[kp.r]
		per := int64(len(a) * len(b))
		if per == 0 || c%per != 0 {
			return expected{}, fmt.Errorf("%s: standalone emitted key pair %v %d times for %d×%d records", q.name, kp, c, len(a), len(b))
		}
		for _, x := range a {
			for _, y := range b {
				want.pairs.addN(x, y, c/per)
			}
		}
	}
	return want, nil
}

// idsByKey groups record ids by join key.
func idsByKey(keys []any, ids []int64) map[any][]int64 {
	m := make(map[any][]int64, len(keys))
	for i, k := range keys {
		m[k] = append(m[k], ids[i])
	}
	return m
}

// check compares an engine result with the reference: the COUNT(*)
// value, or the id-pair digest of the rows.
func check(q *query, want expected, rows []fudj.Record) error {
	if !q.pairs {
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("%s: want one COUNT(*) cell, got %d rows", q.name, len(rows))
		}
		if got := rows[0][0].Int64(); got != want.count {
			return fmt.Errorf("%s: COUNT(*) = %d, reference %d", q.name, got, want.count)
		}
		return nil
	}
	var got digest
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("%s: row has %d columns, want 2", q.name, len(r))
		}
		got.addN(r[0].Int64(), r[1].Int64(), 1)
	}
	if got != want.pairs {
		return fmt.Errorf("%s: %d id pairs (digest %x), reference %d (digest %x)", q.name, got.N, got.Sum, want.pairs.N, want.pairs.Sum)
	}
	return nil
}
