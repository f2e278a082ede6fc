#include "index/byte_signature.h"

#include "common/logging.h"

namespace imgrn {

void ByteSignatureAdd(const ByteSignatureLayout& layout, uint64_t id,
                      std::span<uint8_t> sig) {
  IMGRN_CHECK_EQ(sig.size(), layout.num_bytes());
  const uint64_t h1 = MixHash64(id);
  const uint64_t h2 = MixHash64Alt(id) | 1;
  for (int k = 0; k < layout.num_hashes; ++k) {
    const uint64_t bit =
        (h1 + static_cast<uint64_t>(k) * h2) % layout.num_bits;
    sig[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  }
}

bool ByteSignatureMayContain(const ByteSignatureLayout& layout, uint64_t id,
                             std::span<const uint8_t> sig) {
  IMGRN_CHECK_EQ(sig.size(), layout.num_bytes());
  const uint64_t h1 = MixHash64(id);
  const uint64_t h2 = MixHash64Alt(id) | 1;
  for (int k = 0; k < layout.num_hashes; ++k) {
    const uint64_t bit =
        (h1 + static_cast<uint64_t>(k) * h2) % layout.num_bits;
    if ((sig[bit / 8] & (1u << (bit % 8))) == 0) {
      return false;
    }
  }
  return true;
}

bool ByteSignaturesIntersect(std::span<const uint8_t> a,
                             std::span<const uint8_t> b) {
  IMGRN_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

void ByteSignatureMerge(uint8_t* dst, const uint8_t* src, size_t num_bytes) {
  for (size_t i = 0; i < num_bytes; ++i) {
    dst[i] |= src[i];
  }
}

uint64_t MixHash64(uint64_t value) {
  uint64_t z = value + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t MixHash64Alt(uint64_t value) {
  // Murmur3 finalizer with a different constant schedule than MixHash64 so
  // the two streams behave independently for double hashing.
  uint64_t z = value ^ 0xC2B2AE3D27D4EB4FULL;
  z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCDULL;
  z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53ULL;
  return z ^ (z >> 33);
}

}  // namespace imgrn
