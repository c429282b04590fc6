package store

import "bytes"

// btree is an in-memory B-tree keyed by []byte with arbitrary values,
// used for the primary index of each table. Fan-out is fixed; nodes split
// on overflow and the tree grows at the root.
const btreeOrder = 32 // max children per internal node

type btree struct {
	root *bnode
	size int
}

type bnode struct {
	keys     [][]byte
	vals     []interface{} // leaf only
	children []*bnode      // internal only; len(children) == len(keys)+1
	leaf     bool
}

func newBtree() *btree {
	return &btree{root: &bnode{leaf: true}}
}

// Len returns the number of keys stored.
func (t *btree) Len() int { return t.size }

// Get returns the value for key and whether it exists.
func (t *btree) Get(key []byte) (interface{}, bool) {
	n := t.root
	for {
		i, eq := n.search(key)
		if n.leaf {
			if eq {
				return n.vals[i], true
			}
			return nil, false
		}
		if eq {
			i++ // keys in internal nodes are the smallest key of the right subtree
		}
		n = n.children[i]
	}
}

// Put inserts or replaces the value for key. It reports whether the key
// was newly inserted.
func (t *btree) Put(key []byte, val interface{}) bool {
	inserted, splitKey, right := t.root.insert(key, val)
	if right != nil {
		t.root = &bnode{
			keys:     [][]byte{splitKey},
			children: []*bnode{t.root, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Ascend calls fn for every key/value in ascending key order until fn
// returns false.
func (t *btree) Ascend(fn func(key []byte, val interface{}) bool) {
	t.root.ascend(fn)
}

// Descend calls fn for every key/value in descending key order until
// fn returns false.
func (t *btree) Descend(fn func(key []byte, val interface{}) bool) {
	t.root.descend(fn)
}

// AscendRange calls fn for keys in [lo, hi) in ascending order.
func (t *btree) AscendRange(lo, hi []byte, fn func(key []byte, val interface{}) bool) {
	t.root.ascendRange(lo, hi, fn)
}

// search returns the index of the first key >= key and whether it equals
// key.
func (n *bnode) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	eq := lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
	return lo, eq
}

// insert adds key/val below n. If n splits, it returns the separator key
// and the new right sibling.
func (n *bnode) insert(key []byte, val interface{}) (inserted bool, splitKey []byte, right *bnode) {
	i, eq := n.search(key)
	if n.leaf {
		if eq {
			n.vals[i] = val
			return false, nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = append([]byte(nil), key...)
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		inserted = true
	} else {
		if eq {
			i++
		}
		var childSplit []byte
		var childRight *bnode
		inserted, childSplit, childRight = n.children[i].insert(key, val)
		if childRight != nil {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = childSplit
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i+1] = childRight
		}
	}
	if len(n.keys) < btreeOrder {
		return inserted, nil, nil
	}
	// Split.
	mid := len(n.keys) / 2
	r := &bnode{leaf: n.leaf}
	if n.leaf {
		splitKey = append([]byte(nil), n.keys[mid]...)
		r.keys = append(r.keys, n.keys[mid:]...)
		r.vals = append(r.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
	} else {
		splitKey = n.keys[mid]
		r.keys = append(r.keys, n.keys[mid+1:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	return inserted, splitKey, r
}

func (n *bnode) ascend(fn func([]byte, interface{}) bool) bool {
	if n.leaf {
		for i, k := range n.keys {
			if !fn(k, n.vals[i]) {
				return false
			}
		}
		return true
	}
	for i, c := range n.children {
		if !c.ascend(fn) {
			return false
		}
		_ = i
	}
	return true
}

func (n *bnode) descend(fn func([]byte, interface{}) bool) bool {
	if n.leaf {
		for i := len(n.keys) - 1; i >= 0; i-- {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if !n.children[i].descend(fn) {
			return false
		}
	}
	return true
}

func (n *bnode) ascendRange(lo, hi []byte, fn func([]byte, interface{}) bool) bool {
	if n.leaf {
		i, _ := n.search(lo)
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	i, eq := n.search(lo)
	if eq {
		i++
	}
	for ; i < len(n.children); i++ {
		if !n.children[i].ascendRange(lo, hi, fn) {
			return false
		}
		if i < len(n.keys) && hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
			return false
		}
	}
	return true
}
