package store

import (
	"encoding/binary"
	"hash/crc32"
)

// Per-segment bloom filters let a point lookup reject a run that cannot
// hold its key without touching the file: once minor compactions stack
// runs, a miss would otherwise pay one block read + CRC + decode per
// run whose zone map covers the key. The filter is built over the
// encoded primary keys while the segment is written and persisted in
// the extended footer (see segment.go). ~10 bits per key with 7 probes
// gives a ~1% false-positive rate; a false positive only costs the
// block read the filter would have saved, never a wrong answer.
//
// Filter region encoding (self-validating — it carries its own CRC so
// a corrupt filter degrades to filter-absent reads instead of failing
// the segment):
//
//	"BLM1"              4-byte magic
//	uvarint k           probe count
//	uvarint nbits       bit-array size (a multiple of 8)
//	bits                nbits/8 bytes
//	uint32 CRC32(everything above)
const (
	bloomMagic      = "BLM1"
	bloomBitsPerKey = 10
	bloomHashes     = 7
	bloomMaxBits    = uint64(segMaxBlockLen) * 8
)

// bloomFilter answers "might this segment hold the key?" from k probe
// positions derived by double hashing. Immutable once its segment is
// written or decoded.
type bloomFilter struct {
	k     uint32
	nbits uint64
	bits  []byte
}

// bloomHash derives the two independent 64-bit hashes the k probe
// positions are generated from: FNV-1a for h1 (the hash that also
// routes a key to its shard), a murmur-style finalizer of it for h2
// (forced odd so successive probes never collapse).
func bloomHash(key string) (h1, h2 uint64) {
	h1 = fnv1a(key)
	return h1, bloomMix(h1)
}

// bloomMix finalizes h1 into an independent second hash.
func bloomMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h | 1
}

// mayContain reports whether the key hashing to (h1, h2) might be in
// the set. False means definitely absent.
func (bf *bloomFilter) mayContain(h1, h2 uint64) bool {
	for i := uint64(0); i < uint64(bf.k); i++ {
		pos := (h1 + i*h2) % bf.nbits
		if bf.bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}

// newBloomFilter allocates an empty filter sized for n keys, so the
// segment writer sets bits as rows arrive and holds no per-key state;
// nil when n is 0 (an empty segment needs no filter).
func newBloomFilter(n int) *bloomFilter {
	if n <= 0 {
		return nil
	}
	nbits := uint64(n) * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	nbits = (nbits + 7) &^ 7 // whole bytes
	return &bloomFilter{k: bloomHashes, nbits: nbits, bits: make([]byte, nbits/8)}
}

// add sets key's probe bits. Only the segment writer calls it, before
// the filter is encoded.
func (bf *bloomFilter) add(key string) {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < uint64(bf.k); i++ {
		pos := (h1 + i*h2) % bf.nbits
		bf.bits[pos>>3] |= 1 << (pos & 7)
	}
}

// encode renders the self-validating filter region.
func (bf *bloomFilter) encode() []byte {
	buf := []byte(bloomMagic)
	buf = binary.AppendUvarint(buf, uint64(bf.k))
	buf = binary.AppendUvarint(buf, bf.nbits)
	buf = append(buf, bf.bits...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeBloom parses a filter region. ANY deviation — bad magic, bad
// CRC, impossible parameters, trailing bytes — returns nil: filter
// corruption degrades to filter-absent reads, never a read failure.
func decodeBloom(buf []byte) *bloomFilter {
	if len(buf) < len(bloomMagic)+4 || string(buf[:len(bloomMagic)]) != bloomMagic {
		return nil
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil
	}
	rest := body[len(bloomMagic):]
	k, n := binary.Uvarint(rest)
	if n <= 0 || k == 0 || k > 64 {
		return nil
	}
	rest = rest[n:]
	nbits, n := binary.Uvarint(rest)
	if n <= 0 || nbits == 0 || nbits%8 != 0 || nbits > bloomMaxBits {
		return nil
	}
	rest = rest[n:]
	if uint64(len(rest)) != nbits/8 {
		return nil
	}
	return &bloomFilter{k: uint32(k), nbits: nbits, bits: rest}
}
