package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The segment manifest is the commit record of a compaction: it lists,
// per table, the segment files holding that table's compacted rows. A
// table may appear more than once — its segments in oldest → newest
// order, as minor compactions append new runs without rewriting the
// old ones; a major compaction collapses the table back to a single
// entry. The manifest is replaced atomically (write temp, fsync,
// rename, fsync dir), so a crash leaves either the old or the new
// manifest intact; the only way to observe a torn manifest is
// outside-the-protocol corruption, and then the store falls back to
// replaying whatever the WAL holds, reporting the loss rather than
// failing the open.
//
// Format:
//
//	"MEDEXMAN1\n"                 10-byte magic
//	uvarint generation
//	uvarint entry count
//	entries: table name, file name  (uvarint-length-prefixed strings)
//	uint32 CRC32(everything above)
const (
	manifestName  = "MANIFEST"
	manifestMagic = "MEDEXMAN1\n"
)

// segsDirFor is the single layout rule for where a WAL's segments
// live: a sibling directory named after the log file. A single-file
// store path/extracted.db gets path/extracted.db.segs/; a shard's
// shard-000/wal.log gets shard-000/wal.log.segs/.
func segsDirFor(walPath string) string { return walPath + ".segs" }

// manifestEntry maps one table to its segment file (relative to the
// segments directory).
type manifestEntry struct {
	table string
	file  string
}

// encodeManifest renders the manifest bytes for gen and entries.
func encodeManifest(gen uint64, entries []manifestEntry) []byte {
	buf := []byte(manifestMagic)
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.table)
		buf = appendString(buf, e.file)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest parses and verifies manifest bytes. Any deviation —
// short file, bad magic, bad CRC, trailing data — is ErrCorrupt.
func decodeManifest(buf []byte) (gen uint64, entries []manifestEntry, err error) {
	if len(buf) < len(manifestMagic)+4 || string(buf[:len(manifestMagic)]) != manifestMagic {
		return 0, nil, ErrCorrupt
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, nil, ErrCorrupt
	}
	rest := body[len(manifestMagic):]
	gen, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, nil, ErrCorrupt
	}
	rest = rest[k:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)) {
		return 0, nil, ErrCorrupt
	}
	rest = rest[k:]
	seenFile := make(map[string]bool, n)
	for i := uint64(0); i < n; i++ {
		var table, file string
		table, rest, err = readString(rest)
		if err != nil {
			return 0, nil, err
		}
		file, rest, err = readString(rest)
		if err != nil {
			return 0, nil, err
		}
		// A file name that escapes the segments directory or appears
		// twice is corruption, not a request. A repeated *table* is the
		// normal multi-segment case (oldest → newest runs).
		if table == "" || file == "" || file != filepath.Base(file) || seenFile[file] {
			return 0, nil, ErrCorrupt
		}
		seenFile[file] = true
		entries = append(entries, manifestEntry{table: table, file: file})
	}
	if len(rest) != 0 {
		return 0, nil, ErrCorrupt
	}
	return gen, entries, nil
}

// writeManifest atomically replaces dir's MANIFEST: temp file, fsync,
// rename, fsync dir.
func writeManifest(dir string, gen uint64, entries []manifestEntry) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeManifest(gen, entries)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segFileName names the segment file of table index ti at generation
// gen. The table name itself lives in the manifest, not the file name,
// so no table name can break the file-system namespace.
func segFileName(gen uint64, ti int) string {
	return fmt.Sprintf("seg-%06d-%03d.seg", gen, ti)
}

// loadShardSegments reads a shard's segment state from segsDir.
//
// Returns the per-table open runs (oldest → newest), the manifest
// generation, and whether anything was lost (a torn manifest, a missing
// or corrupt segment file): on loss the shard falls back to whatever
// its WAL replays — every opened segment is closed first, so the
// fallback path leaks no descriptors. Only footers are read: a run's
// row count and key range come from its block index, never from its
// blocks. A run with no rows (an earlier version wrote one for an empty
// table) is closed and not returned; its file stays while the manifest
// lists it. A table whose runs' key ranges do not ascend disjointly,
// oldest first, breaks the invariant every read path relies on (keys
// ascend on every shard): it fails the load with ErrCorrupt before any
// file is touched. A missing directory or missing manifest is the
// normal pre-first-compaction state, not loss. Stray files (crashed
// compaction temps, segments no longer in the manifest) are removed.
func loadShardSegments(segsDir string) (segs map[string][]*segment, gen uint64, lost bool, err error) {
	raw, rerr := os.ReadFile(filepath.Join(segsDir, manifestName))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			// No manifest: any stray segment files are pre-commit
			// leftovers of a crashed first compaction.
			removeStraySegFiles(segsDir, nil)
			return nil, 0, false, nil
		}
		return nil, 0, false, rerr
	}
	gen, entries, derr := decodeManifest(raw)
	if derr != nil {
		// Torn manifest: ignore the segments entirely and replay the
		// WAL; the caller reports the loss. The segment files stay on
		// disk for forensics — the next successful compaction's
		// manifest supersedes them and removes them as strays.
		return nil, 0, true, nil
	}
	segs = make(map[string][]*segment, len(entries))
	keep := make(map[string]bool, len(entries))
	closeAll := func() {
		for _, runs := range segs {
			for _, sg := range runs {
				sg.unref()
			}
		}
	}
	for _, e := range entries {
		sg, oerr := openSegment(filepath.Join(segsDir, e.file))
		if oerr != nil {
			// A manifest-listed segment that is missing or corrupt
			// voids the whole segment set: partial segment state would
			// silently drop one table's rows while keeping another's.
			closeAll()
			return nil, gen, true, nil
		}
		runs := segs[e.table]
		if sg.schema.Name != e.table ||
			(len(runs) > 0 && !schemaEqual(runs[0].schema, sg.schema)) {
			sg.unref()
			closeAll()
			return nil, gen, true, nil
		}
		keep[e.file] = true
		if sg.nRows == 0 {
			sg.unref()
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].maxKey >= sg.minKey {
			prev := filepath.Base(runs[n-1].path)
			sg.unref()
			closeAll()
			return nil, 0, false, fmt.Errorf("store: %s: table %q runs %s and %s overlap (%w)", segsDir, e.table, prev, e.file, ErrCorrupt)
		}
		segs[e.table] = append(runs, sg)
	}
	removeStraySegFiles(segsDir, keep)
	return segs, gen, false, nil
}

// removeStraySegFiles deletes files in segsDir that are neither the
// manifest nor in keep: crashed-compaction temps and superseded
// segments.
func removeStraySegFiles(segsDir string, keep map[string]bool) {
	entries, err := os.ReadDir(segsDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == manifestName || keep[name] || e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "seg-") || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(segsDir, name))
		}
	}
}

// sortManifestEntries orders entries deterministically: by table name,
// preserving each table's oldest → newest run order (the order entries
// were appended in).
func sortManifestEntries(entries []manifestEntry) {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].table < entries[j].table })
}
