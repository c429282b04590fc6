// Package store is a small embedded table store: typed schemas, binary
// row encoding, an append-only memtable over immutable sorted segment
// runs, non-unique secondary indexes, and a write-ahead log with CRC
// framing and crash recovery.
//
// It is the substitute for the external databases in Zhou et al. (ICDE
// 2005): UMLS installed in a local DB2 instance (read path: ontology
// lookup by normalized string) and the Microsoft Access database holding
// extracted information (write path: result persistence).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ColType is the type of a column.
type ColType uint8

// Column types.
const (
	TInt ColType = iota + 1
	TFloat
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TFloat:
		return "REAL"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOLEAN"
	}
	return "UNKNOWN"
}

// Value is a dynamically typed cell value.
type Value struct {
	Type ColType
	I    int64
	F    float64
	S    string
	B    bool
}

// Int, Float, Str and Bool construct Values.
func Int(v int64) Value     { return Value{Type: TInt, I: v} }
func Float(v float64) Value { return Value{Type: TFloat, F: v} }
func Str(v string) Value    { return Value{Type: TString, S: v} }
func Bool(v bool) Value     { return Value{Type: TBool, B: v} }

// String renders the value for debugging.
func (v Value) String() string {
	switch v.Type {
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TFloat:
		return fmt.Sprintf("%g", v.F)
	case TString:
		return v.S
	case TBool:
		return fmt.Sprintf("%t", v.B)
	}
	return "<nil>"
}

// Row is one record: a value per schema column, in schema order.
type Row []Value

// errors returned by the codec.
var (
	ErrCorrupt  = errors.New("store: corrupt record")
	ErrTypeMism = errors.New("store: value type does not match column type")
)

// encodeRow appends the binary encoding of row to buf and returns the
// extended buffer: each value in turn, through appendValue.
func encodeRow(buf []byte, row Row) []byte {
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

// appendValue appends one value in the row codec: 1 type byte then a
// fixed or length-prefixed payload.
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TInt:
		buf = binary.AppendUvarint(buf, zigzag(v.I))
	case TFloat:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F))
	case TString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case TBool:
		if v.B {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// decodeValues decodes n values from the front of buf and returns the
// unconsumed remainder, letting batch records concatenate several rows.
func decodeValues(buf []byte, n int) (Row, []byte, error) {
	row := make(Row, n)
	for i := range row {
		var err error
		if row[i], buf, err = decodeValue(buf); err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}

// decodeValue decodes one value from the front of buf and returns the
// rest. From a []byte (a log record, a block) a string value is copied
// out; from a string (a posting stream read as one) it is a substring,
// so decoding allocates nothing.
func decodeValue[T []byte | string](buf T) (Value, T, error) {
	if len(buf) == 0 {
		return Value{}, buf, ErrCorrupt
	}
	t := ColType(buf[0])
	buf = buf[1:]
	switch t {
	case TInt:
		if u, k := uvarint(buf); k > 0 {
			return Int(unzigzag(u)), buf[k:], nil
		}
	case TFloat:
		if len(buf) >= 8 {
			return Float(math.Float64frombits(be64(buf))), buf[8:], nil
		}
	case TString:
		if u, k := uvarint(buf); k > 0 && uint64(len(buf[k:])) >= u {
			return Str(string(buf[k : k+int(u)])), buf[k+int(u):], nil
		}
	case TBool:
		if len(buf) >= 1 {
			return Bool(buf[0] == 1), buf[1:], nil
		}
	}
	return Value{}, buf, ErrCorrupt
}

// be64 is binary.BigEndian.Uint64 over a []byte or a string (whose
// first 8 bytes go through a stack copy).
func be64[T []byte | string](buf T) uint64 {
	return binary.BigEndian.Uint64([]byte(buf[:8]))
}

// uvarint is binary.Uvarint over a []byte or a string (whose first
// bytes, at most a varint's longest encoding, go through a stack copy).
func uvarint[T []byte | string](buf T) (uint64, int) {
	return binary.Uvarint([]byte(buf[:min(len(buf), binary.MaxVarintLen64)]))
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeKey produces the order-preserving encoding of a value that is
// the store's one key type: every primary key, indexed value and bound
// is such a string, and Go string order is the value order — strings
// compare lexicographically, ints and floats numerically. The leading
// type byte makes an encoded key never empty, so "" can stand for "no
// bound".
func encodeKey(v Value) string {
	if v.Type == TString {
		return string(rune(TString)) + v.S
	}
	var b [9]byte
	return string(appendKey(b[:0], v))
}

// appendKey appends encodeKey(v) to buf.
func appendKey(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Type))
	switch v.Type {
	case TString:
		return append(buf, v.S...)
	case TInt:
		return binary.BigEndian.AppendUint64(buf, uint64(v.I)^(1<<63))
	case TFloat:
		bits := math.Float64bits(v.F)
		if v.F >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		return binary.BigEndian.AppendUint64(buf, bits)
	case TBool:
		if v.B {
			return append(buf, 1)
		}
		return append(buf, 0)
	}
	return buf[:len(buf)-1]
}

// decodeKey inverts encodeKey for a key of column type t. It is exact
// for every value but -0.0, whose key is +0.0's: a float index's key
// cannot tell the two apart.
func decodeKey(key string, t ColType) Value {
	switch t {
	case TString:
		return Str(key[1:])
	case TInt:
		return Int(int64(be64(key[1:]) ^ (1 << 63)))
	case TFloat:
		bits := be64(key[1:])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits))
	case TBool:
		return Bool(key[1] == 1)
	}
	return Value{}
}
