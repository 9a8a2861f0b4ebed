// Memory-bounded shuffle delivery. When a query carries a memory
// budget, cross-partition delivery stops buffering unboundedly:
// each destination partition gets a credit-accounted inbox sized to
// its share of the budget, senders must acquire credit before pushing
// a decoded batch (blocking — backpressure — when the receiver is
// behind), and batches larger than the receive window are split into
// bounded chunks instead of arriving as one oversized buffer. The
// drained records (the operator's materialized input) are tracked
// separately as PeakInput; the inbox credit models the receive-side
// working memory the budget actually bounds.
//
// Without a budget the original sequential delivery path runs
// unchanged, so unbudgeted queries pay zero overhead.
package cluster

import (
	"sync"

	"fudj/internal/types"
)

// SetMemoryBudget gives the cluster a total memory budget in bytes,
// split evenly across partitions. Zero (the default) disables all
// memory bounding.
func (c *Cluster) SetMemoryBudget(total int64) {
	if total < 0 {
		total = 0
	}
	c.memBudget = total
}

// MemoryBudget returns the total memory budget (0 = unbounded).
func (c *Cluster) MemoryBudget() int64 { return c.memBudget }

// PartitionBudget returns one partition's share of the memory budget,
// or 0 when no budget is set.
func (c *Cluster) PartitionBudget() int64 {
	if c.memBudget <= 0 {
		return 0
	}
	b := c.memBudget / int64(c.Partitions())
	if b < 1 {
		b = 1
	}
	return b
}

// inChunk is one delivered batch fragment awaiting drain.
type inChunk struct {
	src   int
	recs  []types.Record
	bytes int64
}

// inbox is a bounded receive buffer for one destination partition.
// Senders block in put when the undrained bytes would exceed the
// bound; the receiver drains chunks in arrival order, releasing
// credit, and reassembles per-source order afterwards so delivery
// stays deterministic.
type inbox struct {
	mu    sync.Mutex
	avail *sync.Cond // senders wait here for credit
	ready *sync.Cond // the receiver waits here for chunks
	bound int64
	bytes int64
	queue []inChunk
	open  int // senders that have not finished yet
	err   error
}

func newInbox(senders int, bound int64) *inbox {
	in := &inbox{bound: bound, open: senders}
	in.avail = sync.NewCond(&in.mu)
	in.ready = sync.NewCond(&in.mu)
	return in
}

// put delivers one chunk, blocking while the inbox lacks credit. An
// oversized chunk is admitted once the inbox is empty, so delivery
// always makes progress. Waits are counted as backpressure stalls.
func (in *inbox) put(src int, recs []types.Record, bytes int64, m *Metrics) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.err == nil && in.bytes > 0 && in.bytes+bytes > in.bound {
		m.addBackpressure()
		in.avail.Wait()
	}
	if in.err != nil {
		return in.err
	}
	in.bytes += bytes
	m.reserveMemory(bytes)
	in.queue = append(in.queue, inChunk{src: src, recs: recs, bytes: bytes})
	in.ready.Signal()
	return nil
}

// finish marks one sender as done with this destination.
func (in *inbox) finish() {
	in.mu.Lock()
	in.open--
	in.ready.Signal()
	in.mu.Unlock()
}

// take removes the oldest chunk. ok is false once every sender has
// finished and the queue is drained.
func (in *inbox) take(m *Metrics) (ch inChunk, ok bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.err == nil && len(in.queue) == 0 && in.open > 0 {
		in.ready.Wait()
	}
	if in.err != nil {
		return inChunk{}, false, in.err
	}
	if len(in.queue) == 0 {
		return inChunk{}, false, nil
	}
	ch = in.queue[0]
	in.queue = in.queue[1:]
	in.bytes -= ch.bytes
	m.releaseMemory(ch.bytes)
	in.avail.Broadcast()
	return ch, true, nil
}

// cancel fails the inbox, waking every blocked sender and receiver.
func (in *inbox) cancel(err error) {
	in.mu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.avail.Broadcast()
	in.ready.Broadcast()
	in.mu.Unlock()
}

// deliverBounded is deliver with bounded inboxes: one sender goroutine
// per source pushes credit-accounted chunks, one receiver goroutine
// per destination drains them. Per-source chunk order is preserved and
// destinations reassemble sources in index order, so the delivered
// record order is identical to the sequential path.
func (c *Cluster) deliverBounded(outbox [][][]types.Record) (Data, error) {
	p := c.Partitions()
	ctx := c.context()
	fi := c.faults
	var epoch int64
	if fi != nil {
		epoch = c.nextEpoch()
	}
	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	bound := c.PartitionBudget()
	// Chunks target half the receive window so two senders can overlap;
	// a single record larger than that still travels (alone).
	chunkTarget := bound / 2
	if chunkTarget < 1 {
		chunkTarget = 1
	}

	inboxes := make([]*inbox, p)
	for i := range inboxes {
		inboxes[i] = newInbox(p, bound)
	}
	cancelAll := func(err error) {
		for _, in := range inboxes {
			in.cancel(err)
		}
	}
	// Cancellation watcher: a context abort unblocks every cond wait.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			cancelAll(ctx.Err())
		case <-stop:
		}
	}()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelAll(err)
	}

	var wg sync.WaitGroup
	for src := 0; src < p; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			dec := c.pool.Get(0)
			defer c.pool.Put(dec)
			for dst := 0; dst < p; dst++ {
				if batch := outbox[src][dst]; len(batch) > 0 {
					if err := c.sendBounded(epoch, src, dst, batch, inboxes[dst], chunkTarget, maxAttempts, dec); err != nil {
						fail(err)
						return
					}
				}
				inboxes[dst].finish()
			}
		}(src)
	}

	out := c.NewData()
	for dst := 0; dst < p; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			perSrc := make([][]types.Record, p)
			for {
				ch, ok, err := inboxes[dst].take(c.metrics)
				if err != nil {
					return // firstErr / ctx carries the cause
				}
				if !ok {
					break
				}
				perSrc[ch.src] = append(perSrc[ch.src], ch.recs...)
			}
			var recs []types.Record
			var resident int64
			for src := 0; src < p; src++ {
				recs = append(recs, perSrc[src]...)
			}
			resident = types.RecordsMemSize(recs)
			c.metrics.notePartitionInput(resident)
			out[dst] = recs
		}(dst)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// sendBounded transfers one source→destination batch through the
// bounded inbox, splitting it into chunks no larger than chunkTarget
// estimated bytes and no longer than the cluster's frame row cap.
// Cross-node chunks travel as columnar frames, fault-injected and
// resent on corruption exactly like the sequential path. dec is the
// sender's pooled decode scratch.
func (c *Cluster) sendBounded(epoch int64, src, dst int, batch []types.Record, in *inbox, chunkTarget int64, maxAttempts int, dec *types.Batch) error {
	crossNode := c.NodeOf(src) != c.NodeOf(dst)
	lo := 0
	for chunkIdx := 0; lo < len(batch); chunkIdx++ {
		hi := lo
		var size int64
		windowSplit := false
		for hi < len(batch) && hi-lo < c.batchSize {
			sz := batch[hi].MemSize()
			if hi > lo && size+sz > chunkTarget {
				windowSplit = true
				break
			}
			size += sz
			hi++
		}
		if windowSplit {
			// The receive window forced this batch apart: backpressure
			// shaped the transfer. (Counted once per window-forced cut;
			// cuts at the frame row cap are ordinary framing, not
			// backpressure.)
			c.metrics.addBackpressure()
		}
		chunk := batch[lo:hi]
		lo = hi
		if crossNode {
			decoded, err := c.transferFrame(epoch, src, dst, chunk, int64(chunkIdx), maxAttempts, dec)
			if err != nil {
				return err
			}
			chunk = decoded
			size = types.RecordsMemSize(chunk)
		}
		if err := in.put(src, chunk, size, c.metrics); err != nil {
			return err
		}
	}
	return nil
}
