package main

import (
	"encoding/binary"
	"math/rand"
)

// Every input a run hands the file system is generated in this file
// from the --seed argument: names, file sizes, payload bytes, the Zipf
// file choice and the read/overwrite mix. Nothing comes from
// internal/workload or internal/experiments, so a change there cannot
// change what the benchmark measures.

// The independent random streams drawn from one seed.
const (
	streamNames = iota + 1
	streamSizes
	streamAge
	streamMeasure
	streamCuts
)

// splitmix is the SplitMix64 generator: tiny, allocation-free, and
// fixed forever, so a seed names the same inputs on every Go release.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream uint64) *splitmix {
	return &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// payloadHeader is the prefix of every payload that names its file and
// version, so a read can tell which version it found.
const payloadHeader = 8

// fillPayload writes version v of file f into p: the header, then a
// byte stream keyed on (seed, f, v), so a stale, misplaced or torn
// block cannot pass for the version expected.
func fillPayload(p []byte, seed int64, f, v uint32) {
	binary.LittleEndian.PutUint32(p[0:], f)
	binary.LittleEndian.PutUint32(p[4:], v)
	r := splitmix{s: uint64(seed) ^ uint64(f)<<32 ^ uint64(v)*0x2545f4914f6cdd1d}
	for i := payloadHeader; i < len(p); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(p[i:], w[:])
	}
}

// payloadVersion reads the (file, version) header back.
func payloadVersion(p []byte) (f, v uint32) {
	return binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint32(p[4:])
}

// checkPayload reports whether p is exactly version v of file f;
// scratch must be len(p) bytes.
func checkPayload(p, scratch []byte, seed int64, f, v uint32) bool {
	fillPayload(scratch, seed, f, v)
	return string(p) == string(scratch)
}

// fileNames returns n distinct names spread round-robin over subdirs
// subdirectories of dir ("d000", "d001", ...), or directly in dir when
// subdirs is 0. Each name is a fixed index prefix (distinctness) plus
// a seed-drawn suffix of 0 to 20 letters, so directory entries pack
// differently per seed the way real names do.
func fileNames(seed int64, dir string, n, subdirs int) []string {
	r := newSplitmix(seed, streamNames)
	out := make([]string, n)
	var buf []byte
	for i := range out {
		buf = append(buf[:0], dir...)
		if subdirs > 0 {
			buf = append(buf, "/d"...)
			buf = appendDecimal(buf, i%subdirs, 3)
		}
		buf = append(buf, '/', 'f')
		buf = appendDecimal(buf, i, 6)
		for k := r.intn(21); k > 0; k-- {
			buf = append(buf, byte('a'+r.intn(26)))
		}
		out[i] = string(buf)
	}
	return out
}

// subdirNames returns the subdirectories fileNames spreads names over.
func subdirNames(dir string, subdirs int) []string {
	out := make([]string, subdirs)
	for i := range out {
		out[i] = string(appendDecimal([]byte(dir+"/d"), i, 3))
	}
	return out
}

// appendDecimal appends i zero-padded to width digits.
func appendDecimal(b []byte, i, width int) []byte {
	var d [20]byte
	n := len(d)
	for i > 0 || n > len(d)-width {
		n--
		d[n] = byte('0' + i%10)
		i /= 10
	}
	return append(b, d[n:]...)
}

// fileSizes draws n sizes uniformly from [lo, hi].
func fileSizes(seed int64, n, lo, hi int) []int {
	r := newSplitmix(seed, streamSizes)
	out := make([]int, n)
	for i := range out {
		out[i] = lo + r.intn(hi-lo+1)
	}
	return out
}

// churnOp is one op of the cleaning workload's stream.
type churnOp struct {
	file int32
	read bool
}

// churnStream draws n ops over a population of files: the file by a
// Zipf law (P(rank) ∝ 1/(v+rank)^s, rank 0 hottest), and one op in
// readEvery a whole-file read, the rest whole-file overwrites. The
// ranks are scattered over the population by a seeded permutation, so
// the hot files are not simply the first ones created.
func churnStream(seed int64, stream uint64, files, n, readEvery int) []churnOp {
	src := newSplitmix(seed, stream)
	rng := rand.New(rand.NewSource(int64(src.next() >> 1)))
	perm := rng.Perm(files)
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(files-1))
	out := make([]churnOp, n)
	for i := range out {
		out[i] = churnOp{file: int32(perm[zipf.Uint64()]), read: src.intn(readEvery) == 0}
	}
	return out
}
