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
// extended buffer. Layout per value: 1 type byte then a fixed or
// length-prefixed payload.
func encodeRow(buf []byte, row Row) []byte {
	for _, v := range row {
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TInt:
			buf = binary.AppendUvarint(buf, zigzag(v.I))
		case TFloat:
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v.F))
			buf = append(buf, b[:]...)
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
	}
	return buf
}

// decodeValues decodes n values from the front of buf and returns the
// unconsumed remainder, letting batch records concatenate several rows.
func decodeValues(buf []byte, n int) (Row, []byte, error) {
	row := make(Row, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) == 0 {
			return nil, nil, ErrCorrupt
		}
		t := ColType(buf[0])
		buf = buf[1:]
		switch t {
		case TInt:
			u, k := binary.Uvarint(buf)
			if k <= 0 {
				return nil, nil, ErrCorrupt
			}
			buf = buf[k:]
			row = append(row, Int(unzigzag(u)))
		case TFloat:
			if len(buf) < 8 {
				return nil, nil, ErrCorrupt
			}
			row = append(row, Float(math.Float64frombits(binary.BigEndian.Uint64(buf[:8]))))
			buf = buf[8:]
		case TString:
			u, k := binary.Uvarint(buf)
			if k <= 0 || uint64(len(buf[k:])) < u {
				return nil, nil, ErrCorrupt
			}
			row = append(row, Str(string(buf[k:k+int(u)])))
			buf = buf[k+int(u):]
		case TBool:
			if len(buf) < 1 {
				return nil, nil, ErrCorrupt
			}
			row = append(row, Bool(buf[0] == 1))
			buf = buf[1:]
		default:
			return nil, nil, ErrCorrupt
		}
	}
	return row, buf, nil
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
	switch v.Type {
	case TString:
		return string(rune(TString)) + v.S
	case TInt:
		var b [9]byte
		b[0] = byte(TInt)
		binary.BigEndian.PutUint64(b[1:], uint64(v.I)^(1<<63))
		return string(b[:])
	case TFloat:
		var b [9]byte
		b[0] = byte(TFloat)
		bits := math.Float64bits(v.F)
		if v.F >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		binary.BigEndian.PutUint64(b[1:], bits)
		return string(b[:])
	case TBool:
		if v.B {
			return string(rune(TBool)) + "\x01"
		}
		return string(rune(TBool)) + "\x00"
	}
	return ""
}
