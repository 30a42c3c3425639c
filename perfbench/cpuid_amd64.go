//go:build amd64

package main

import (
	"encoding/binary"
	"strings"
)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// cpuModel reads the processor brand string (CPUID leaves
// 0x80000002–0x80000004).
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b [48]byte
	for i := uint32(0); i < 3; i++ {
		a, bx, c, d := cpuid(0x80000002+i, 0)
		for j, v := range []uint32{a, bx, c, d} {
			binary.LittleEndian.PutUint32(b[i*16+uint32(j)*4:], v)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
}

// lanePath names the interior the packed kernels run on this host. It
// repeats internal/core's AVX2 probe (AVX2, OSXSAVE and AVX set, YMM state
// enabled by the OS), which that package does not export.
func lanePath() string {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return "pure-go"
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&(osxsave|avx) != osxsave|avx {
		return "pure-go"
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return "pure-go"
	}
	if _, b, _, _ := cpuid(7, 0); b&(1<<5) == 0 {
		return "pure-go"
	}
	return "avx2"
}
