// Deterministic pseudo-random source for the whole library.
//
// xoshiro256** seeded through SplitMix64.  Every algorithm in the library
// takes an explicit seed so that tests and benchmarks are reproducible.
// The generator counts the number of raw 64-bit words drawn: the paper's
// model charges for randomness (Lemma 1 / Proposition 2 argue about the
// number of random bits an algorithm may consume), and the sampler tests
// rely on this accounting.
#ifndef L1HH_UTIL_RANDOM_H_
#define L1HH_UTIL_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace l1hh {

class BitWriter;
class BitReader;

class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Next raw 64 bits.
  uint64_t NextU64() {
    ++words_drawn_;
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound); bound >= 1.  Unbiased (rejection sampling).
  uint64_t UniformU64(uint64_t bound) {
    // Lemire's multiply-shift rejection method.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Bernoulli(2^{-k}): true iff k fresh random bits are all zero.  This is
  /// exactly the coin of the paper's Lemma 1.  O(k/64) time, k >= 0.
  bool AllZeroBits(int k) {
    while (k >= 64) {
      if (NextU64() != 0) {
        // Still consume conceptually independent bits; early exit is fine
        // because remaining bits cannot change the outcome.
        return false;
      }
      k -= 64;
    }
    if (k == 0) return true;
    return (NextU64() >> (64 - k)) == 0;
  }

  /// Number of failures before the first success of Bernoulli(p), p in (0,1].
  /// Inverse-transform sampling; O(1) time.
  uint64_t Geometric(double p) {
    if (p >= 1.0) return 0;
    return GeometricWithLogQ(std::log1p(-p));
  }

  /// Geometric(p) for p in (0, 1) given log_q = log1p(-p), so a caller
  /// drawing many gaps at one fixed p computes the logarithm once.
  uint64_t GeometricWithLogQ(double log_q) {
    const double u = 1.0 - UniformDouble();  // u in (0, 1]
    const double g = std::floor(std::log(u) / log_q);
    if (g < 0) return 0;
    if (g > 9.0e18) return static_cast<uint64_t>(9.0e18);
    return static_cast<uint64_t>(g);
  }

  /// Total raw 64-bit words drawn since construction/seeding.
  uint64_t words_drawn() const { return words_drawn_; }
  uint64_t bits_drawn() const { return words_drawn_ * 64; }

  // ---- Snapshot support -------------------------------------------------
  // A checkpointed structure that owns an Rng must persist the generator
  // state, not just the seed: a restored instance then continues the exact
  // random sequence of the saved one, so checkpoint -> restore -> continue
  // is bit-identical to an uninterrupted run (tests/snapshot_roundtrip_test).

  static constexpr int kStateWords = 5;  // state_[4] + words_drawn_

  void SaveState(uint64_t out[kStateWords]) const {
    for (int i = 0; i < 4; ++i) out[i] = state_[i];
    out[4] = words_drawn_;
  }

  void RestoreState(const uint64_t in[kStateWords]) {
    for (int i = 0; i < 4; ++i) state_[i] = in[i];
    words_drawn_ = in[4];
  }

  /// The bit-stream form of SaveState/RestoreState (kStateWords u64s).
  /// Deserialize leaves the generator untouched on a truncated stream.
  void Serialize(BitWriter& out) const;
  void Deserialize(BitReader& in);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
  uint64_t words_drawn_ = 0;
};

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
/// Inline so per-item hash sweeps (engine shard routing, the grouped
/// table's probe sequence) pipeline the mix instead of paying a call.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One-shot mix of a 64-bit value (stateless fingerprint).
inline uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

}  // namespace l1hh

#endif  // L1HH_UTIL_RANDOM_H_
