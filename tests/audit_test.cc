// Battery for the live accuracy auditor (src/obs/audit.h, ctest label
// "obs").
//
// The auditor's whole value is that an alert MEANS something: sampling is
// deterministic per (seed, rate) so shards compose exactly, shadow counts
// are exact so honest summaries score eps_ratio <= 1, and a summary that
// lies about its estimates or drops heavy hitters is driven OVER the
// threshold.  Each of those claims is pinned here, including the bounded
// -memory cap accounting.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/zipf.h"
#include "summary/summary.h"
#include "util/random.h"

namespace l1hh {
namespace obs {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry::Get().ResetForTest();
    TraceRing::Get().ResetForTest();
  }
};

std::vector<uint64_t> MakeStream(uint64_t m, uint64_t seed) {
  ZipfDistribution zipf(1 << 16, 1.2);
  Rng rng(seed);
  std::vector<uint64_t> stream;
  stream.reserve(m);
  for (uint64_t i = 0; i < m; ++i) stream.push_back(zipf.Sample(rng));
  return stream;
}

std::unique_ptr<Summary> RunSummary(const std::string& algo,
                                    const std::vector<uint64_t>& stream,
                                    double epsilon, double phi) {
  SummaryOptions options;
  options.epsilon = epsilon;
  options.phi = phi;
  options.universe_size = 1 << 16;
  options.stream_length = stream.size();
  options.seed = 7;
  auto summary = MakeSummary(algo, options);
  EXPECT_NE(summary, nullptr);
  for (const uint64_t item : stream) summary->Update(item);
  return summary;
}

// A summary whose Estimate lies by +10*eps*m and whose HeavyHitters
// report is empty: the "corrupted server" the auditor exists to catch.
class CorruptedSummary : public Summary {
 public:
  CorruptedSummary(std::unique_ptr<Summary> inner, double epsilon)
      : inner_(std::move(inner)), epsilon_(epsilon) {}

  std::string_view Name() const override { return inner_->Name(); }
  void Update(uint64_t item, uint64_t weight = 1) override {
    inner_->Update(item, weight);
  }
  double Estimate(uint64_t item) const override {
    return inner_->Estimate(item) +
           10.0 * epsilon_ * static_cast<double>(inner_->ItemsProcessed());
  }
  std::vector<ItemEstimate> HeavyHitters(double) const override {
    return {};  // drops every heavy hitter
  }
  uint64_t ItemsProcessed() const override {
    return inner_->ItemsProcessed();
  }
  size_t MemoryUsageBytes() const override {
    return inner_->MemoryUsageBytes();
  }

 private:
  std::unique_ptr<Summary> inner_;
  double epsilon_;
};

TEST_F(AuditTest, SamplingIsDeterministicPerSeedAndDecorrelated) {
  AccuracyAuditor a({.sample_rate = 16, .seed = 3});
  AccuracyAuditor b({.sample_rate = 16, .seed = 3});
  AccuracyAuditor c({.sample_rate = 16, .seed = 4});
  size_t sampled = 0;
  size_t agree_c = 0;
  for (uint64_t key = 0; key < 100000; ++key) {
    ASSERT_EQ(a.SampledKey(key), b.SampledKey(key));
    if (a.SampledKey(key)) ++sampled;
    if (a.SampledKey(key) && c.SampledKey(key)) ++agree_c;
  }
  // ~1/16 of keys sampled (binomial, generous bounds), and a different
  // seed picks an essentially independent subspace.
  EXPECT_GT(sampled, 100000 / 16 / 2);
  EXPECT_LT(sampled, 100000 / 16 * 2);
  EXPECT_LT(agree_c, sampled / 4);

  // rate <= 1 samples everything.
  AccuracyAuditor all({.sample_rate = 1, .seed = 3});
  EXPECT_TRUE(all.SampledKey(0));
  EXPECT_TRUE(all.SampledKey(12345));
}

TEST_F(AuditTest, ShadowCountsAreExactAndShardsCompose) {
  const auto stream = MakeStream(50000, 11);
  AuditorOptions options{.sample_rate = 8, .seed = 5};
  AccuracyAuditor whole(options);
  whole.ObserveColumn(stream.data(), stream.size());

  // Split the stream in half across two "shards" and merge: identical
  // shadow, because membership depends only on (key, seed).
  AccuracyAuditor left(options);
  AccuracyAuditor right(options);
  const size_t half = stream.size() / 2;
  left.ObserveColumn(stream.data(), half);
  for (size_t i = half; i < stream.size(); ++i) right.Observe(stream[i]);
  ASSERT_TRUE(left.MergeFrom(right).ok());

  EXPECT_EQ(left.items_seen(), whole.items_seen());
  const auto expect = whole.TopShadow(0);
  const auto got = left.TopShadow(0);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]);
  }

  // And the counts really are exact: recount a few keys by brute force.
  for (size_t i = 0; i < std::min<size_t>(5, expect.size()); ++i) {
    const uint64_t key = expect[i].first;
    uint64_t exact = 0;
    for (const uint64_t item : stream) exact += item == key ? 1 : 0;
    EXPECT_EQ(expect[i].second, exact);
  }

  // Mismatched seed or rate must refuse to merge.
  AccuracyAuditor other_seed({.sample_rate = 8, .seed = 6});
  EXPECT_FALSE(left.MergeFrom(other_seed).ok());
  AccuracyAuditor other_rate({.sample_rate = 4, .seed = 5});
  EXPECT_FALSE(left.MergeFrom(other_rate).ok());
}

TEST_F(AuditTest, ShadowMemoryIsBoundedWithDroppedAccounting) {
  AuditorOptions options{.sample_rate = 1, .seed = 9, .max_shadow_keys = 32};
  AccuracyAuditor auditor(options);
  for (uint64_t key = 0; key < 1000; ++key) auditor.Observe(key);
  auditor.Observe(5);  // existing keys still count past the cap

  const auto report = auditor.Audit(
      [](const std::vector<uint64_t>& keys) {
        return std::vector<double>(keys.size(), 1.0);
      },
      [](double) { return std::vector<ItemEstimate>{}; }, 1001);
  EXPECT_EQ(report.shadow_keys, 32u);
  EXPECT_EQ(report.dropped_items, 1000u - 32u);
  EXPECT_EQ(report.items_seen, 1001u);
  const auto top = auditor.TopShadow(0);
  ASSERT_EQ(top.size(), 32u);
  EXPECT_EQ(top[0].first, 5u);  // the double-counted key leads
  EXPECT_EQ(top[0].second, 2u);
}

TEST_F(AuditTest, HonestSummariesStayWithinTolerance) {
  const double epsilon = 0.01;
  const double phi = 0.05;
  const auto stream = MakeStream(200000, 13);
  for (const char* algo : {"space_saving", "misra_gries"}) {
    auto summary = RunSummary(algo, stream, epsilon, phi);
    AccuracyAuditor auditor(
        {.sample_rate = 4, .seed = 2, .epsilon = epsilon, .phi = phi});
    auditor.ObserveColumn(stream.data(), stream.size());
    const AuditReport report = auditor.AuditSummary(*summary);
    EXPECT_GT(report.audited_keys, 0u) << algo;
    // Definition 1: estimates within eps*m of truth -> ratio <= 1.
    EXPECT_LE(report.eps_ratio, 1.0) << algo;
    EXPECT_DOUBLE_EQ(report.recall, 1.0) << algo;
  }
}

TEST_F(AuditTest, CorruptedSummaryDrivesRatioOverOneAndRecallDown) {
  const double epsilon = 0.01;
  const double phi = 0.05;
  const auto stream = MakeStream(200000, 13);
  // rate=1: every key shadowed, so shadow heavies certainly exist and the
  // corrupted (empty) HeavyHitters report must miss all of them.
  AccuracyAuditor auditor(
      {.sample_rate = 1, .seed = 2, .epsilon = epsilon, .phi = phi});
  auditor.ObserveColumn(stream.data(), stream.size());

  CorruptedSummary corrupted(RunSummary("space_saving", stream, epsilon, phi),
                             epsilon);
  const AuditReport report = auditor.AuditSummary(corrupted);
  EXPECT_GT(report.eps_ratio, 1.0);  // the +10*eps*m lie is caught
  EXPECT_GT(report.shadow_heavies, 0u);
  EXPECT_LT(report.recall, 1.0);
  EXPECT_EQ(report.recalled, 0u);

  // The published gauges carry the verdict (what /metrics would scrape).
  EXPECT_GT(GetFloatGauge("l1hh_audit_observed_eps_ratio")->Value(), 1.0);
  EXPECT_LT(GetFloatGauge("l1hh_audit_shadow_recall")->Value(), 1.0);
  EXPECT_EQ(GetCounter("l1hh_audit_runs_total")->Value(), 1u);
}

TEST_F(AuditTest, AuditPublishesInstrumentsForHonestRun) {
  const auto stream = MakeStream(100000, 17);
  auto summary = RunSummary("space_saving", stream, 0.01, 0.05);
  AccuracyAuditor auditor(
      {.sample_rate = 1, .seed = 2, .epsilon = 0.01, .phi = 0.05});
  auditor.ObserveColumn(stream.data(), stream.size());
  const AuditReport report = auditor.AuditSummary(*summary);
  EXPECT_LE(report.eps_ratio, 1.0);
  EXPECT_DOUBLE_EQ(
      GetFloatGauge("l1hh_audit_observed_eps_ratio")->Value(),
      report.eps_ratio);
  EXPECT_DOUBLE_EQ(GetFloatGauge("l1hh_audit_shadow_recall")->Value(), 1.0);
  EXPECT_EQ(
      static_cast<size_t>(GetGauge("l1hh_audit_shadow_keys")->Value()),
      report.shadow_keys);
  EXPECT_GT(GetHistogram("l1hh_audit_observed_abs_error")->Count(), 0u);
}

// A replica scores its view against the TopShadow pairs its primary
// ships; that path must score exactly as Audit() does on the shadow the
// pairs came from, honest or corrupted.
TEST_F(AuditTest, ShippedShadowScoresLikeAudit) {
  const double epsilon = 0.01;
  const double phi = 0.05;
  const auto stream = MakeStream(100000, 19);
  // top_k = 0 ships every shadow key, so both paths see the same truth.
  AccuracyAuditor auditor({.sample_rate = 2,
                           .seed = 2,
                           .epsilon = epsilon,
                           .phi = phi,
                           .audit_top_k = 0});
  auditor.ObserveColumn(stream.data(), stream.size());
  auto honest = RunSummary("space_saving", stream, epsilon, phi);
  CorruptedSummary corrupted(RunSummary("space_saving", stream, epsilon, phi),
                             epsilon);
  for (const Summary* view : {static_cast<const Summary*>(honest.get()),
                              static_cast<const Summary*>(&corrupted)}) {
    const AuditReport audited = auditor.AuditSummary(*view);
    const AuditReport shipped = AuditShippedShadow(
        auditor.TopShadow(0), epsilon, phi, stream.size(), *view);
    EXPECT_GT(shipped.shadow_heavies, 0u);
    EXPECT_EQ(shipped.items_seen, audited.items_seen);
    EXPECT_EQ(shipped.shadow_keys, audited.shadow_keys);
    EXPECT_EQ(shipped.audited_keys, audited.audited_keys);
    EXPECT_EQ(shipped.max_abs_error, audited.max_abs_error);
    EXPECT_EQ(shipped.eps_ratio, audited.eps_ratio);
    EXPECT_EQ(shipped.shadow_heavies, audited.shadow_heavies);
    EXPECT_EQ(shipped.recalled, audited.recalled);
    EXPECT_EQ(shipped.recall, audited.recall);
  }
  EXPECT_EQ(GetCounter("l1hh_audit_runs_total")->Value(), 4u);
}

}  // namespace
}  // namespace obs
}  // namespace l1hh
