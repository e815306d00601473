#ifndef TOPK_COMMON_CRC32_H_
#define TOPK_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace topk {

/// Incremental CRC-32C (Castagnoli) over `data`. Start with `crc = 0` and
/// chain calls for streaming data. Used to checksum run files so that
/// storage corruption is detected before wrong rows reach a query result.
///
/// On x86 CPUs with SSE4.2 this runs the `crc32` instruction 8 bytes per
/// step; elsewhere it is Crc32cTable. The path is picked once, by CPU
/// detection, and both produce identical values.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

/// The portable byte-at-a-time table implementation of Crc32c: the only
/// path on CPUs without SSE4.2, and the reference the hardware path is
/// tested against.
uint32_t Crc32cTable(uint32_t crc, const void* data, size_t n);

}  // namespace topk

#endif  // TOPK_COMMON_CRC32_H_
