#ifndef IMGRN_INDEX_BYTE_SIGNATURE_H_
#define IMGRN_INDEX_BYTE_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace imgrn {

/// Raw-byte hashed bit-vector signatures, the wire format of the V_f / V_d
/// synopses stored in R*-tree entry payloads (Section 5.1): each id sets
/// `num_hashes` bits chosen by double hashing over MixHash64 and
/// MixHash64Alt, so membership probes have no false negatives. The flat
/// form lets signatures live inside the fixed-size, monoid-merged payload
/// bytes of RTreeEntry.
struct ByteSignatureLayout {
  size_t num_bits = 128;
  int num_hashes = 2;

  size_t num_bytes() const { return (num_bits + 7) / 8; }
};

/// Sets the bits of `id` in `sig` (which must hold layout.num_bytes()).
void ByteSignatureAdd(const ByteSignatureLayout& layout, uint64_t id,
                      std::span<uint8_t> sig);

/// No-false-negative membership probe.
bool ByteSignatureMayContain(const ByteSignatureLayout& layout, uint64_t id,
                             std::span<const uint8_t> sig);

/// True iff (a & b) != 0 — the Fig. 4 "qV ∧ V ≠ 0" test.
bool ByteSignaturesIntersect(std::span<const uint8_t> a,
                             std::span<const uint8_t> b);

/// dst |= src, byte-wise. The RTree payload-merge monoid.
void ByteSignatureMerge(uint8_t* dst, const uint8_t* src, size_t num_bytes);

/// 64-bit mix hash (SplitMix64 finalizer), the first double-hashing stream.
uint64_t MixHash64(uint64_t value);

/// Second independent hash stream for double hashing.
uint64_t MixHash64Alt(uint64_t value);

}  // namespace imgrn

#endif  // IMGRN_INDEX_BYTE_SIGNATURE_H_
