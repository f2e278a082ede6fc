#ifndef IMGRN_COMMON_CRC32C_H_
#define IMGRN_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace imgrn {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum used by iSCSI, ext4 and most storage engines for page frames.
/// On x86-64 CPUs with SSE4.2 this runs the `crc32` instruction over 8-byte
/// words (~6.9 GB/s, ~1.2 µs per 8 KiB page); elsewhere it falls back to
/// the byte-at-a-time table loop (~0.33 GB/s). The path is chosen once, on
/// first call. Both paths compute the same exact value, so nothing that
/// stores or compares a checksum depends on which one ran.
uint32_t Crc32c(const void* data, size_t length);

/// Incremental form: feed `crc` the previous return value (or 0 for the
/// first chunk).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t length);

/// The table-driven path: the fallback for CPUs without SSE4.2, and the
/// reference the dispatched path is tested against.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t length);

/// Which path Crc32cExtend dispatches to: "sse4.2" or "portable".
const char* Crc32cBackendName();

}  // namespace imgrn

#endif  // IMGRN_COMMON_CRC32C_H_
