#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TOPK_CRC32C_HW 1
#endif

namespace topk {

namespace {

/// Table-driven CRC-32C; the table is built once at first use.
struct Crc32cTableEntries {
  uint32_t entries[256];

  Crc32cTableEntries() {
    constexpr uint32_t kPolynomial = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
      }
      entries[i] = crc;
    }
  }
};

#ifdef TOPK_CRC32C_HW
/// SSE4.2 `crc32` computes the same reflected Castagnoli CRC as the table,
/// 8 bytes per instruction. Compiled for SSE4.2 by attribute only, so the
/// rest of the build keeps its baseline ISA; called only after CPU
/// detection said the instruction exists.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t state = ~crc;
  for (; n >= 8; n -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));  // unaligned-safe load
    state = _mm_crc32_u64(state, word);
  }
  auto narrow = static_cast<uint32_t>(state);
  for (; n > 0; --n, ++bytes) narrow = _mm_crc32_u8(narrow, *bytes);
  return ~narrow;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

Crc32cFn SelectCrc32c() {
#ifdef TOPK_CRC32C_HW
  __builtin_cpu_init();  // may run before libgcc's own constructor does
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cTable;
}

}  // namespace

uint32_t Crc32cTable(uint32_t crc, const void* data, size_t n) {
  static const Crc32cTableEntries table;
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ bytes[i]) & 0xff];
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(crc, data, n);
}

}  // namespace topk
