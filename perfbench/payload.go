package main

import "encoding/binary"

// Inputs are derived from the run's seed alone, so a later change to the
// repository's own YCSB generators cannot move the benchmark's keys,
// values or arrival times.

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// records always get distinct keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// dataset names the records of one run: keys and the deterministic value
// every record holds, both fixed by the seed.
type dataset struct {
	records   int
	valueSize int
	keySalt   uint64
	valueSalt uint64
}

func newDataset(seed int64, records, valueSize int) dataset {
	s := mix64(uint64(seed) ^ 0x5eed5eed5eed5eed)
	return dataset{records: records, valueSize: valueSize, keySalt: s, valueSalt: mix64(s)}
}

const keyLen = 20

// key renders record rec's key into dst[:keyLen]: "user" plus 16 hex
// digits of a scrambled index, so keys spread over the hash space and
// therefore over both masters' tablets.
func (d dataset) key(dst []byte, rec int) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst[:0], "user"...)
	x := mix64(uint64(rec) + d.keySalt)
	for i := 60; i >= 0; i -= 4 {
		dst = append(dst, hex[x>>uint(i)&0xf])
	}
	return dst
}

// value renders record rec's payload into dst[:valueSize]. Loading and
// every update write exactly these bytes, so any read can be checked
// byte for byte.
func (d dataset) value(dst []byte, rec int) []byte {
	if cap(dst) < d.valueSize {
		dst = make([]byte, d.valueSize)
	}
	dst = dst[:d.valueSize]
	x := mix64(uint64(rec) ^ d.valueSalt)
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	x = mix64(x + 0x9e3779b97f4a7c15)
	for ; i < len(dst); i++ {
		dst[i] = byte(x)
		x >>= 8
	}
	return dst
}
