// Shared types for the paper's algorithms (Section 3).
//
// Every algorithm is parameterized by (epsilon, phi, delta), the universe
// size n, and — for the known-length variants (Theorems 1–6) — the stream
// length m.  The leading constants of the paper's analysis are collected in
// `Constants`:
//   * Constants::Paper() reproduces the literal values from the pseudocode
//     (Algorithm 2's l = 10^5 eps^-2 etc.), chosen there to make a
//     union-bound proof go through;
//   * Constants::Practical() (the default) keeps every formula's *shape*
//     with smaller leading constants; the accuracy benches re-verify the
//     (eps, phi) contract empirically over trial batteries.
// This is substitution #1 in DESIGN.md and affects no Table 1 comparison,
// which are all about asymptotic shape.
#ifndef L1HH_CORE_COMMON_H_
#define L1HH_CORE_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace l1hh {

using ItemId = uint64_t;

/// One reported heavy hitter.
struct HeavyHitter {
  ItemId item = 0;
  /// Estimated count over the stream so far (sampled counts rescaled by
  /// items processed / items sampled).
  double estimated_count = 0;
  /// estimated_count / items processed.
  double estimated_fraction = 0;
};

struct Constants {
  // ---- Algorithm 1 (Theorem 1) ----
  /// Expected sample size = hh_sample_factor * ln(6/delta) / eps^2.
  double hh_sample_factor = 3.0;
  /// T1 length = hh_mg_factor / eps.  2 splits the eps budget evenly
  /// between sampling error and Misra-Gries undercount.
  double hh_mg_factor = 2.0;
  /// Hashed id range = hh_hash_range_factor * l^2 / delta.
  double hh_hash_range_factor = 4.0;
  /// T2 length = hh_top_factor / phi.
  double hh_top_factor = 2.0;

  // ---- Algorithm 2 (Theorem 2) ----
  /// Expected sample size = opt_sample_factor / eps^2.
  double opt_sample_factor = 150.0;
  /// T1 (Misra–Gries over true ids) length = opt_t1_factor / phi.
  double opt_t1_factor = 2.0;
  /// Repetitions R = max(opt_min_reps, opt_rep_factor * log2(12/phi)).
  double opt_rep_factor = 3.0;
  int opt_min_reps = 5;
  /// T2/T3 rows per repetition = opt_rows_factor / eps.
  double opt_rows_factor = 8.0;
  /// Epoch scale of the shared accelerated-counter schedule: after s
  /// samples the epoch is t = floor(2 log2(eps phi s / opt_epoch_scale)),
  /// i.e. the epoch the paper's per-cell rule (t = floor(2 log2(T2 /
  /// scale)), scale 1000 in the pseudocode) would assign to an exactly
  /// phi-heavy cell.  Keying the schedule to the sample position instead
  /// of per-cell T2 values is what makes two instances' epochs
  /// reconcilable at Merge time (docs/ALGORITHMS.md, BdwOptimal section).
  double opt_epoch_scale = 8.0;

  // ---- Algorithm 3 (Theorem 4, epsilon-Minimum) ----
  /// l1 = min_s1_factor * ln(6/(eps delta)) / eps.
  double min_s1_factor = 6.0;
  /// l2 = min_s2_factor * ln(6/delta) / eps^2.
  double min_s2_factor = 6.0;
  /// l3 = min_s3_factor * ln^3(6/(eps delta)) / eps.  (The paper uses
  /// log^6; cubic keeps the same "polylog(1/eps)/eps" shape at usable
  /// scale — substitution documented in DESIGN.md.)
  double min_s3_factor = 6.0;
  /// S2 active while #distinct <= 1 / (min_distinct_factor * eps * ln(1/eps)).
  double min_distinct_factor = 1.0;

  // ---- Borda / Maximin (Theorems 5–6) ----
  /// Borda sample size = borda_sample_factor * ln(6 n / delta) / eps^2.
  double borda_sample_factor = 6.0;
  /// Maximin sample size = maximin_sample_factor * ln(6 n / delta) / eps^2.
  double maximin_sample_factor = 8.0;

  // ---- Unknown stream length (Theorems 7–8) ----
  /// Epoch window factor W (the paper uses 1/eps); boundaries at W^k.
  /// 0 means "derive from eps".
  double unknown_window_factor = 0.0;

  static Constants Practical() { return Constants{}; }

  /// The literal constants from the paper's pseudocode and proofs.
  static Constants Paper() {
    Constants c;
    c.hh_sample_factor = 36.0;  // l = 6 log(6/delta)/eps^2 sampled at 6l/m
    c.hh_mg_factor = 1.0;
    c.hh_hash_range_factor = 4.0;
    c.hh_top_factor = 1.0;
    c.opt_sample_factor = 1e5;
    c.opt_t1_factor = 2.0;
    c.opt_rep_factor = 200.0;
    c.opt_min_reps = 1;
    c.opt_rows_factor = 100.0;
    c.opt_epoch_scale = 1000.0;
    c.min_s1_factor = 6.0;
    c.min_s2_factor = 6.0;
    c.min_s3_factor = 6.0;
    c.borda_sample_factor = 36.0;
    c.maximin_sample_factor = 48.0;
    return c;
  }
};

/// Validation shared by the algorithm Options structs.
Status ValidateHeavyHitterParams(double epsilon, double phi, double delta,
                                 uint64_t universe_size,
                                 uint64_t stream_length);

/// Number of bits to address a universe of size n.
int UniverseBits(uint64_t universe_size);

}  // namespace l1hh

#endif  // L1HH_CORE_COMMON_H_
