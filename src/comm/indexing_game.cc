#include "comm/indexing_game.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/bdw_optimal.h"
#include "core/bdw_simple.h"
#include "core/epsilon_maximum.h"
#include "core/epsilon_minimum.h"
#include "util/bit_stream.h"
#include "util/random.h"

namespace l1hh {

namespace {

// Pair (a, j) -> universe id a * t + j.
uint64_t PairId(uint64_t a, uint64_t j, uint64_t t) { return a * t + j; }

}  // namespace

GameResult RunHeavyHittersIndexingGame(const HeavyHittersIndexingParams& p,
                                       uint64_t seed) {
  GameResult result;
  Rng rng(seed);
  const double eps = p.epsilon;
  const double phi = p.phi;
  const uint64_t t = std::max<uint64_t>(2, static_cast<uint64_t>(
                                               std::floor(1.0 / (2 * eps))));
  const uint64_t alphabet = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::floor(1.0 / (2 * (phi - eps)))));

  // Alice's random string and Bob's random index.
  std::vector<uint64_t> x(t);
  for (auto& v : x) v = rng.UniformU64(alphabet);
  const uint64_t i = rng.UniformU64(t);

  const uint64_t c1 = std::max<uint64_t>(
      1, static_cast<uint64_t>(eps * static_cast<double>(p.stream_length)));
  const uint64_t c2 = std::max<uint64_t>(
      1, static_cast<uint64_t>((phi - eps) *
                               static_cast<double>(p.stream_length)));
  const uint64_t total = t * c1 + alphabet * c2;

  // Algorithm parameters chosen so that the planted item must be reported
  // and every other item must not (Definition 1 applied to the instance).
  const double planted_frac =
      static_cast<double>(c1 + c2) / static_cast<double>(total);
  const double eps_alg =
      static_cast<double>(c1) / (2.0 * static_cast<double>(total));

  BitWriter message;
  if (p.use_optimal) {
    BdwOptimal::Options opt;
    opt.epsilon = eps_alg;
    opt.phi = planted_frac;
    opt.delta = 0.05;
    opt.universe_size = alphabet * t;
    opt.stream_length = total;
    BdwOptimal alice(opt, Mix64(seed ^ 0xa11ceULL));
    for (uint64_t j = 0; j < t; ++j) {
      for (uint64_t c = 0; c < c1; ++c) alice.Insert(PairId(x[j], j, t));
    }
    alice.Serialize(message);

    BitReader reader(message);
    BdwOptimal bob =
        BdwOptimal::Deserialize(reader, opt, Mix64(seed ^ 0xb0bULL));
    for (uint64_t a = 0; a < alphabet; ++a) {
      for (uint64_t c = 0; c < c2; ++c) bob.Insert(PairId(a, i, t));
    }
    uint64_t decoded = alphabet;  // invalid
    double best = -1;
    for (const HeavyHitter& hh : bob.Report()) {
      if (hh.item % t == i && hh.estimated_count > best) {
        best = hh.estimated_count;
        decoded = hh.item / t;
      }
    }
    result.success = decoded == x[i];
  } else {
    BdwSimple::Options opt;
    opt.epsilon = eps_alg;
    opt.phi = planted_frac;
    opt.delta = 0.05;
    opt.universe_size = alphabet * t;
    opt.stream_length = total;
    BdwSimple alice(opt, Mix64(seed ^ 0xa11ceULL));
    for (uint64_t j = 0; j < t; ++j) {
      for (uint64_t c = 0; c < c1; ++c) alice.Insert(PairId(x[j], j, t));
    }
    alice.Serialize(message);

    BitReader reader(message);
    BdwSimple bob = BdwSimple::Deserialize(reader, opt, Mix64(seed ^ 0xb0bULL));
    for (uint64_t a = 0; a < alphabet; ++a) {
      for (uint64_t c = 0; c < c2; ++c) bob.Insert(PairId(a, i, t));
    }
    uint64_t decoded = alphabet;
    double best = -1;
    for (const HeavyHitter& hh : bob.Report()) {
      if (hh.item % t == i && hh.estimated_count > best) {
        best = hh.estimated_count;
        decoded = hh.item / t;
      }
    }
    result.success = decoded == x[i];
  }
  result.message_bits = message.size_bits();
  return result;
}

GameResult RunMaximumIndexingGame(const MaximumIndexingParams& p,
                                  uint64_t seed) {
  GameResult result;
  Rng rng(seed);
  const uint64_t t = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::floor(1.0 / p.epsilon)));
  std::vector<uint64_t> x(t);
  for (auto& v : x) v = rng.UniformU64(t);
  const uint64_t i = rng.UniformU64(t);

  const uint64_t c = std::max<uint64_t>(
      1, static_cast<uint64_t>(p.epsilon *
                               static_cast<double>(p.stream_length) / 2.0));
  const uint64_t total = 2 * t * c;
  // Error must stay below half the planted gap (gap = c counts).
  const double eps_alg =
      static_cast<double>(c) / (5.0 * static_cast<double>(total));

  EpsilonMaximum::Options opt;
  opt.epsilon = eps_alg;
  opt.delta = 0.05;
  opt.universe_size = t * t;
  opt.stream_length = total;
  EpsilonMaximum alice(opt, Mix64(seed ^ 0xa11ceULL));
  for (uint64_t j = 0; j < t; ++j) {
    for (uint64_t k = 0; k < c; ++k) alice.Insert(PairId(x[j], j, t));
  }
  BitWriter message;
  alice.Serialize(message);

  BitReader reader(message);
  EpsilonMaximum bob =
      EpsilonMaximum::Deserialize(reader, opt, Mix64(seed ^ 0xb0bULL));
  for (uint64_t a = 0; a < t; ++a) {
    for (uint64_t k = 0; k < c; ++k) bob.Insert(PairId(a, i, t));
  }
  const HeavyHitter answer = bob.Report();
  result.success = answer.item == PairId(x[i], i, t);
  result.message_bits = message.size_bits();
  return result;
}

GameResult RunMinimumIndexingGame(const MinimumIndexingParams& p,
                                  uint64_t seed) {
  GameResult result;
  Rng rng(seed);
  const uint64_t t = std::max<uint64_t>(
      4, static_cast<uint64_t>(std::floor(5.0 / p.epsilon)));
  // Alice's bit string and Bob's index.
  std::vector<bool> x(t);
  uint64_t support = 0;
  for (size_t j = 0; j < t; ++j) {
    x[j] = rng.NextU64() & 1;
    support += x[j] ? 1 : 0;
  }
  const uint64_t i = rng.UniformU64(t);

  // Stream length: Alice 2*support, Bob 2*(t-1) + 1 (item t gets 1 copy).
  const uint64_t total = 2 * support + 2 * (t - 1) + 1;
  // eps_alg * total < 1 so frequency-0 vs frequency-1 is resolvable.
  const double eps_alg = 0.49 / static_cast<double>(total);

  EpsilonMinimum::Options opt;
  opt.epsilon = eps_alg;
  opt.delta = 0.1;
  opt.universe_size = t + 1;
  opt.stream_length = total;
  EpsilonMinimum alice(opt, Mix64(seed ^ 0xa11ceULL));
  for (uint64_t j = 0; j < t; ++j) {
    if (x[j]) {
      alice.Insert(j);
      alice.Insert(j);
    }
  }
  BitWriter message;
  alice.Serialize(message);

  BitReader reader(message);
  EpsilonMinimum bob =
      EpsilonMinimum::Deserialize(reader, Mix64(seed ^ 0xb0bULL));
  for (uint64_t j = 0; j < t; ++j) {
    if (j == i) continue;
    bob.Insert(j);
    bob.Insert(j);
  }
  bob.Insert(t);  // one copy of the sentinel item

  const EpsilonMinimum::Result answer = bob.Report();
  const bool decoded_bit = answer.item != i;  // min at i <=> x_i == 0
  result.success = decoded_bit == x[i];
  result.message_bits = message.size_bits();
  return result;
}

}  // namespace l1hh
