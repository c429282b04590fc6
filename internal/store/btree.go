package store

import "slices"

// btree is an in-memory B-tree keyed by encoded keys with arbitrary
// values, used for the secondary indexes (indexed value → posting
// list), whose values arrive in any order. Fan-out is fixed; nodes
// split on overflow and the tree grows at the root.
const btreeOrder = 32 // max children per internal node

type btree struct {
	root *bnode
	size int
}

type bnode struct {
	keys     []string
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
func (t *btree) Get(key string) (interface{}, bool) {
	n := t.root
	for {
		i, eq := slices.BinarySearch(n.keys, key)
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
func (t *btree) Put(key string, val interface{}) bool {
	inserted, splitKey, right := t.root.insert(key, val)
	if right != nil {
		t.root = &bnode{
			keys:     []string{splitKey},
			children: []*bnode{t.root, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

// AscendRange calls fn for keys in [lo, hi) in ascending order; hi ""
// is unbounded.
func (t *btree) AscendRange(lo, hi string, fn func(key string, val interface{}) bool) {
	t.root.ascendRange(lo, hi, fn)
}

// insert adds key/val below n. If n splits, it returns the separator key
// and the new right sibling.
func (n *bnode) insert(key string, val interface{}) (inserted bool, splitKey string, right *bnode) {
	i, eq := slices.BinarySearch(n.keys, key)
	if n.leaf {
		if eq {
			n.vals[i] = val
			return false, "", nil
		}
		n.keys = slices.Insert(n.keys, i, key)
		n.vals = slices.Insert(n.vals, i, val)
		inserted = true
	} else {
		if eq {
			i++
		}
		var childSplit string
		var childRight *bnode
		inserted, childSplit, childRight = n.children[i].insert(key, val)
		if childRight != nil {
			n.keys = slices.Insert(n.keys, i, childSplit)
			n.children = slices.Insert(n.children, i+1, childRight)
		}
	}
	if len(n.keys) < btreeOrder {
		return inserted, "", nil
	}
	// Split.
	mid := len(n.keys) / 2
	r := &bnode{leaf: n.leaf}
	splitKey = n.keys[mid]
	if n.leaf {
		r.keys = append(r.keys, n.keys[mid:]...)
		r.vals = append(r.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
	} else {
		r.keys = append(r.keys, n.keys[mid+1:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	return inserted, splitKey, r
}

func (n *bnode) ascendRange(lo, hi string, fn func(string, interface{}) bool) bool {
	i, eq := slices.BinarySearch(n.keys, lo)
	if n.leaf {
		for ; i < len(n.keys); i++ {
			if hi != "" && n.keys[i] >= hi {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	if eq {
		i++
	}
	for ; i < len(n.children); i++ {
		if !n.children[i].ascendRange(lo, hi, fn) {
			return false
		}
		if i < len(n.keys) && hi != "" && n.keys[i] >= hi {
			return false
		}
	}
	return true
}
