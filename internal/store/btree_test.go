package store

import (
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
	if !bt.Put("b", 2) || !bt.Put("a", 1) || !bt.Put("c", 3) {
		t.Fatal("fresh inserts must report true")
	}
	if bt.Put("b", 22) {
		t.Fatal("replace must report false")
	}
	if v, ok := bt.Get("b"); !ok || v.(int) != 22 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	if _, ok := bt.Get("zzz"); ok {
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
		bt.Put(fmt.Sprintf("key-%06d", i), i)
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	// Ascend must yield sorted order and every key.
	prev := ""
	count := 0
	bt.AscendRange("", "", func(k string, v interface{}) bool {
		if k <= prev {
			t.Fatalf("out of order: %q then %q", prev, k)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend visited %d, want %d", count, n)
	}
	// Every key must be retrievable.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		if v, ok := bt.Get(k); !ok || v.(int) != i {
			t.Fatalf("Get(%s) = %v, %v", k, v, ok)
		}
	}
}

func TestBtreeAscendRange(t *testing.T) {
	bt := newBtree()
	for i := 0; i < 100; i++ {
		bt.Put(fmt.Sprintf("%03d", i), i)
	}
	var got []int
	bt.AscendRange("010", "020", func(_ string, v interface{}) bool {
		got = append(got, v.(int))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [010,020) = %v", got)
	}
	// Early stop.
	n := 0
	bt.AscendRange("000", "", func(_ string, _ interface{}) bool {
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
			bt.Put(k, i)
			ref[k] = i
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get(k)
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
		bt.AscendRange("", "", func(k string, _ interface{}) bool {
			if i >= len(want) || k != want[i] {
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
		if a >= b {
			t.Errorf("int key order broken: %d !< %d", ints[i-1], ints[i])
		}
	}
	floats := []float64{-100.5, -0.25, 0, 0.25, 1, 98.3, 144}
	for i := 1; i < len(floats); i++ {
		a, b := encodeKey(Float(floats[i-1])), encodeKey(Float(floats[i]))
		if a >= b {
			t.Errorf("float key order broken: %g !< %g", floats[i-1], floats[i])
		}
	}
	if encodeKey(Str("abc")) >= encodeKey(Str("abd")) {
		t.Error("string key order broken")
	}
	if encodeKey(Bool(false)) >= encodeKey(Bool(true)) {
		t.Error("bool key order broken")
	}
	// The encoding is on disk (zone maps, segment keys) and drives shard
	// routing and key order, so its bytes are pinned.
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Int(-1), "\x01\x7f\xff\xff\xff\xff\xff\xff\xff"},
		{Int(1), "\x01\x80\x00\x00\x00\x00\x00\x00\x01"},
		{Float(-2), "\x02\x3f\xff\xff\xff\xff\xff\xff\xff"},
		{Float(1.5), "\x02\xbf\xf8\x00\x00\x00\x00\x00\x00"},
		{Str("ab"), "\x03ab"},
		{Str(""), "\x03"},
		{Bool(false), "\x04\x00"},
		{Bool(true), "\x04\x01"},
	} {
		if got := encodeKey(c.v); got != c.want {
			t.Errorf("encodeKey(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// Property: int key encoding is strictly monotone.
func TestEncodeKeyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := encodeKey(Int(a)), encodeKey(Int(b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
