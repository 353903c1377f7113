#ifndef CRE_VECSIM_CODEC_H_
#define CRE_VECSIM_CODEC_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/status.h"
#include "vecsim/kernels.h"

namespace cre {

/// On-memory encoding of an index's base vectors. fp16 halves the
/// footprint at ~1e-3 relative error; int8 quarters it with a per-vector
/// scale+offset affine code. Scoring is asymmetric — the query stays fp32
/// while the base side streams its compressed form — so the accuracy loss
/// is one-sided and no decode pass is needed on the hot path.
enum class VectorCodecKind : std::uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
};

const char* VectorCodecName(VectorCodecKind k);

/// Per-index quantization knobs (paper Sec. VI: precision is a late-bound
/// physical property, not part of the logical plan).
struct QuantizationOptions {
  VectorCodecKind codec = VectorCodecKind::kFp32;
  /// Quantized searches over-fetch rescore_factor * k candidates and
  /// re-rank them with exact fp32 arithmetic over the decoded vectors, so
  /// ordering errors inside the top-k band are corrected.
  std::size_t rescore_factor = 3;
};

/// Codec-encoded, append-only row-major vector storage shared by the index
/// families. All scoring entry points are batched and route to the
/// runtime-dispatched SIMD kernels.
class VectorStore {
 public:
  /// Drops all rows and fixes (codec, dim) for subsequent Appends.
  void Reset(VectorCodecKind kind, std::size_t dim);

  /// Encodes and appends `n` fp32 rows.
  void Append(const float* data, std::size_t n);

  VectorCodecKind kind() const { return kind_; }
  std::size_t size() const { return n_; }
  std::size_t dim() const { return dim_; }
  bool quantized() const { return kind_ != VectorCodecKind::kFp32; }

  /// Per-query precompute for int8 scoring (dot decomposes into
  /// scale * <q, codes> + offset * sum(q)); 0 for other codecs.
  float QueryPrecompute(const float* query) const;

  /// out[i] = score(query, row first+i) for i in [0, count).
  void ScoreRange(const float* query, float query_pre, std::size_t first,
                  std::size_t count, float* out) const;

  /// out[i] = score(query, row ids[i]).
  void ScoreIds(const float* query, float query_pre, const std::uint32_t* ids,
                std::size_t count, float* out) const;

  float ScoreOne(const float* query, float query_pre, std::uint32_t id) const;

  /// Reconstructs row `id` as fp32 (exact for kFp32).
  void Decode(std::uint32_t id, float* out) const;

  /// Exact fp32 dot against the decoded row — the rescore primitive.
  float RescoreOne(const float* query, std::uint32_t id,
                   float* scratch) const;

  /// Scoring error bound of this codec on unit vectors; quantized range
  /// searches widen their threshold by this much before the exact filter.
  float ScoreSlack() const;

  std::size_t MemoryBytes() const;

  /// Codec payload (kind + blobs); the caller's versioned image wraps it.
  Status Save(std::ostream& out) const;
  /// Reads and validates a payload for exactly (expected_n, expected_dim).
  Status Load(std::istream& in, std::size_t expected_n,
              std::size_t expected_dim);

  /// Raw fp32 rows; valid only when kind() == kFp32 (the families that do
  /// their own math — k-means, hyperplane hashing — stay full precision).
  const float* Fp32Data() const { return fp32_.data(); }

 private:
  VectorCodecKind kind_ = VectorCodecKind::kFp32;
  /// Kernel variant for fp32 scoring (quantized codecs dispatch
  /// internally): the widest the host supports.
  KernelVariant variant_ = BestKernelVariant();
  std::size_t dim_ = 0;
  std::size_t n_ = 0;
  std::vector<float> fp32_;
  std::vector<std::uint16_t> fp16_;
  std::vector<std::int8_t> int8_;
  std::vector<float> scale_;   ///< per-vector, int8 only
  std::vector<float> offset_;  ///< per-vector, int8 only
};

}  // namespace cre

#endif  // CRE_VECSIM_CODEC_H_
