package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBtreeBasic(t *testing.T) {
	bt := newBtree()
	if bt.Len() != 0 {
		t.Fatal("empty tree len != 0")
	}
	if !bt.Put([]byte("b"), 2) || !bt.Put([]byte("a"), 1) || !bt.Put([]byte("c"), 3) {
		t.Fatal("fresh inserts must report true")
	}
	if bt.Put([]byte("b"), 22) {
		t.Fatal("replace must report false")
	}
	if v, ok := bt.Get([]byte("b")); !ok || v.(int) != 22 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := bt.Get([]byte("zzz")); ok {
		t.Fatal("Get of missing key")
	}
	if bt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", bt.Len())
	}
}

func TestBtreeManyKeysOrdered(t *testing.T) {
	bt := newBtree()
	const n = 5000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		bt.Put([]byte(fmt.Sprintf("key-%06d", i)), i)
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	// Ascend must yield sorted order and every key.
	var prev []byte
	count := 0
	bt.Ascend(func(k []byte, v interface{}) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend visited %d, want %d", count, n)
	}
	// Every key must be retrievable.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if v, ok := bt.Get(k); !ok || v.(int) != i {
			t.Fatalf("Get(%s) = %v, %v", k, v, ok)
		}
	}
}

func TestBtreeAscendRange(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 100; i++ {
		bt.Put([]byte(fmt.Sprintf("%03d", i)), i)
	}
	var got []int
	bt.AscendRange([]byte("010"), []byte("020"), func(_ []byte, v interface{}) bool {
		got = append(got, v.(int))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [010,020) = %v", got)
	}
	// Early stop.
	n := 0
	bt.AscendRange([]byte("000"), nil, func(_ []byte, _ interface{}) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property: the tree agrees with a reference map under arbitrary inserts.
func TestBtreeQuickAgainstMap(t *testing.T) {
	f := func(keys []string) bool {
		bt := newBtree()
		ref := map[string]int{}
		for i, k := range keys {
			bt.Put([]byte(k), i)
			ref[k] = i
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get([]byte(k))
			if !ok || got.(int) != v {
				return false
			}
		}
		// Ascend yields ref's keys in sorted order.
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		i := 0
		okAll := true
		bt.Ascend(func(k []byte, _ interface{}) bool {
			if i >= len(want) || string(k) != want[i] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrdering(t *testing.T) {
	// Int key encoding must preserve numeric order, including negatives.
	ints := []int64{-1000, -5, -1, 0, 1, 2, 99, 100000}
	for i := 1; i < len(ints); i++ {
		a, b := encodeKey(Int(ints[i-1])), encodeKey(Int(ints[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("int key order broken: %d !< %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{-100.5, -0.25, 0, 0.25, 1, 98.3, 144}
	for i := 1; i < len(floats); i++ {
		a, b := encodeKey(Float(floats[i-1])), encodeKey(Float(floats[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("float key order broken: %g !< %g", floats[i-1], floats[i])
		}
	}
	if bytes.Compare(encodeKey(Str("abc")), encodeKey(Str("abd"))) >= 0 {
		t.Error("string key order broken")
	}
	if bytes.Compare(encodeKey(Bool(false)), encodeKey(Bool(true))) >= 0 {
		t.Error("bool key order broken")
	}
}

// Property: int key encoding is strictly monotone.
func TestEncodeKeyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := encodeKey(Int(a)), encodeKey(Int(b))
		switch {
		case a < b:
			return bytes.Compare(ka, kb) < 0
		case a > b:
			return bytes.Compare(ka, kb) > 0
		default:
			return bytes.Equal(ka, kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
