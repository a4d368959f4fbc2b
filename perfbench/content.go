package main

import (
	"bytes"
	"encoding/binary"

	"tss/internal/vfs"
)

// Every byte the benchmark stores is a 4 KiB block that describes
// itself: magic, generation (write sequence number), block index, the
// path it belongs to, a payload derived from (path, generation, index),
// and a crc32c over all of that. A read is checked by rebuilding the
// block its header names and comparing every byte, so a flipped byte, a
// block of another file, or one from another offset is a wrong read.
const (
	blockSize  = 4096
	blockMagic = "TSSBLK01"
	hdrLen     = 22 // magic 8, generation 8, index 4, path length 2
	crcOff     = blockSize - 4
)

// fillBlock writes the block for (path, gen, idx) into b[:blockSize];
// seed, drawn from the workload seed, salts the payload.
func fillBlock(b []byte, seed uint64, path string, gen uint64, idx uint32) {
	b = b[:blockSize]
	copy(b, blockMagic)
	binary.LittleEndian.PutUint64(b[8:], gen)
	binary.LittleEndian.PutUint32(b[16:], idx)
	binary.LittleEndian.PutUint16(b[20:], uint16(len(path)))
	n := hdrLen + copy(b[hdrLen:], path)
	h := seed ^ 14695981039346656037 // FNV-1a
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	fillRandom(b[n:crcOff], h^gen*0x9e3779b97f4a7c15^uint64(idx)<<32)
	binary.LittleEndian.PutUint32(b[crcOff:], vfs.CRC32C(0, b[:crcOff]))
}

// checkBlock verifies that b is exactly the block of path at index idx
// for the generation its header names, and returns that generation.
// scratch must hold blockSize bytes.
func checkBlock(b, scratch []byte, seed uint64, path string, idx uint32) (uint64, bool) {
	if len(b) != blockSize || string(b[:8]) != blockMagic {
		return 0, false
	}
	gen := binary.LittleEndian.Uint64(b[8:])
	fillBlock(scratch, seed, path, gen, idx)
	return gen, bytes.Equal(b, scratch[:blockSize])
}

// fillRandom fills p from a splitmix64 stream: cheap, seeded, and
// different for every (path, generation, index).
func fillRandom(p []byte, state uint64) {
	var w [8]byte
	for len(p) > 0 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(w[:], z)
		p = p[copy(p, w[:]):]
	}
}

// mix derives an independent seed for a (seed, stream) pair.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}
