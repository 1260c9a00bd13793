package extsort

import (
	"fmt"
)

// Trace is the block-depletion sequence of a merge: entry i names the
// run whose block was the i-th to be fully consumed. Replaying a Trace
// through workload.Sequence times a real merge under the paper's
// prefetching strategies.
type Trace struct {
	Runs []int
}

// runCursor streams one run's records during the merge.
type runCursor struct {
	cfg    Config
	reader RunReader
	run    int

	block    []byte
	blockLen int
	blockIdx int // next block to read
	off      int // byte offset into block

	exhausted bool
	trace     *Trace
}

func newRunCursor(cfg Config, reader RunReader, run int, trace *Trace) (*runCursor, error) {
	c := &runCursor{
		cfg:    cfg,
		reader: reader,
		run:    run,
		block:  make([]byte, cfg.BlockSize),
		trace:  trace,
	}
	if err := c.loadNext(); err != nil {
		return nil, err
	}
	return c, nil
}

// loadNext reads the next block, marking exhaustion at end of run.
func (c *runCursor) loadNext() error {
	if c.blockIdx >= c.reader.Blocks() {
		c.exhausted = true
		return nil
	}
	n, err := c.reader.ReadBlock(c.blockIdx, c.block)
	if err != nil {
		return err
	}
	if n == 0 || n%c.cfg.RecordSize != 0 {
		return fmt.Errorf("extsort: run %d block %d has %d bytes (record size %d)",
			c.run, c.blockIdx, n, c.cfg.RecordSize)
	}
	c.blockLen = n
	c.blockIdx++
	c.off = 0
	return nil
}

// current returns the cursor's leading record; only valid when not
// exhausted.
func (c *runCursor) current() []byte {
	return c.block[c.off : c.off+c.cfg.RecordSize]
}

// advance consumes the leading record, loading the next block when the
// current one empties (and recording the depletion in the trace).
func (c *runCursor) advance() error {
	c.off += c.cfg.RecordSize
	if c.off >= c.blockLen {
		if c.trace != nil {
			c.trace.Runs = append(c.trace.Runs, c.run)
		}
		return c.loadNext()
	}
	return nil
}

// loserTree is a tournament tree over k cursors: node values hold the
// losing cursor index, the overall winner sits above the root. This is
// the classic structure for k-way merges (Knuth 5.4.1): each
// replacement costs ⌈log₂ k⌉ comparisons.
type loserTree struct {
	cfg     Config
	cursors []*runCursor
	tree    []int // internal nodes: losers; tree[0] is the winner
	k       int
}

// newLoserTree builds the tree with all cursors loaded.
func newLoserTree(cfg Config, cursors []*runCursor) *loserTree {
	k := len(cursors)
	lt := &loserTree{cfg: cfg, cursors: cursors, k: k, tree: make([]int, k)}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for i := 0; i < k; i++ {
		lt.seed(i)
	}
	return lt
}

// seed plays cursor i into a partially built tree: the first visitor to
// a node parks there; the second plays the match and sends the winner
// up. Exactly one player reaches tree[0].
func (lt *loserTree) seed(i int) {
	winner := i
	node := (i + lt.k) / 2
	for node > 0 {
		if lt.tree[node] == -1 {
			lt.tree[node] = winner
			return
		}
		if lt.better(lt.tree[node], winner) {
			lt.tree[node], winner = winner, lt.tree[node]
		}
		node /= 2
	}
	lt.tree[0] = winner
}

// better reports whether cursor a beats (sorts before) cursor b.
// Exhausted cursors always lose; ties break on index for stability.
func (lt *loserTree) better(a, b int) bool {
	if b < 0 {
		return true
	}
	if a < 0 {
		return false
	}
	ca, cb := lt.cursors[a], lt.cursors[b]
	if ca.exhausted {
		return false
	}
	if cb.exhausted {
		return true
	}
	if lt.cfg.less(ca.current(), cb.current()) {
		return true
	}
	if lt.cfg.less(cb.current(), ca.current()) {
		return false
	}
	return a < b
}

// replay pushes cursor i up from its leaf, recording losers, and
// installs the final winner at tree[0].
func (lt *loserTree) replay(i int) {
	winner := i
	node := (i + lt.k) / 2
	for node > 0 {
		if lt.better(lt.tree[node], winner) {
			lt.tree[node], winner = winner, lt.tree[node]
		}
		node /= 2
	}
	lt.tree[0] = winner
}

// winner returns the cursor index holding the smallest record, or -1
// when all are exhausted.
func (lt *loserTree) winner() int {
	w := lt.tree[0]
	if w < 0 || lt.cursors[w].exhausted {
		return -1
	}
	return w
}

// Merge performs the k-way merge of runs, writing records to out. If
// trace is non-nil, the block-depletion order is appended to it, each
// run named by its index in runs. It returns the number of records
// written; closing the readers is left to the caller.
func Merge(cfg Config, runs []RunReader, out RecordWriter, trace *Trace) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(runs) == 0 {
		return 0, nil
	}
	cursors := make([]*runCursor, len(runs))
	for i, r := range runs {
		c, err := newRunCursor(cfg, r, i, trace)
		if err != nil {
			return 0, err
		}
		cursors[i] = c
	}
	lt := newLoserTree(cfg, cursors)
	var written int64
	for {
		w := lt.winner()
		if w < 0 {
			return written, nil
		}
		cur := cursors[w]
		if err := out.Write(cur.current()); err != nil {
			return written, err
		}
		written++
		if err := cur.advance(); err != nil {
			return written, err
		}
		lt.replay(w)
	}
}
