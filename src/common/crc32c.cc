#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define IMGRN_CRC32C_SSE42 1
#endif

namespace imgrn {

namespace {

// Byte-indexed lookup table for the reflected Castagnoli polynomial, built
// at compile time (cheaper to review than a literal table, impossible to
// typo, and constant-initialized, so a call during another translation
// unit's static initialization never sees it zero).
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

#ifdef IMGRN_CRC32C_SSE42
// One dependent `crc32` per 8-byte word. Three interleaved streams would
// halve the time per 8 KiB page again, but that saves ~0.6 µs per page
// read and needs a GF(2) step to combine the streams: not worth carrying.
__attribute__((target("sse4.2"))) uint32_t Sse42Extend(uint32_t crc,
                                                        const void* data,
                                                        size_t length) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t state = ~crc;
  for (; length >= sizeof(uint64_t); length -= sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    state = _mm_crc32_u64(state, word);
    bytes += sizeof(word);
  }
  uint32_t tail = static_cast<uint32_t>(state);
  for (; length > 0; --length) tail = _mm_crc32_u8(tail, *bytes++);
  return ~tail;
}
#endif

ExtendFn ChooseExtend() {
#ifdef IMGRN_CRC32C_SSE42
  // Safe before libgcc's own CPU-model constructor has run.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Sse42Extend;
#endif
  return &Crc32cExtendPortable;
}

// A function-local static, so the first call picks the path even when it
// comes from another translation unit's static initialization.
ExtendFn ActiveExtend() {
  static const ExtendFn extend = ChooseExtend();
  return extend;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t length) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < length; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t length) {
  return ActiveExtend()(crc, data, length);
}

uint32_t Crc32c(const void* data, size_t length) {
  return Crc32cExtend(0, data, length);
}

const char* Crc32cBackendName() {
  return ActiveExtend() == &Crc32cExtendPortable ? "portable" : "sse4.2";
}

}  // namespace imgrn
