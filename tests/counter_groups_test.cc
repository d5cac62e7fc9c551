#include "summary/counter_groups.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "stream/stream_generator.h"
#include "summary/misra_gries.h"
#include "summary/space_saving.h"
#include "summary/summary.h"
#include "util/crc32.h"
#include "util/random.h"

namespace l1hh {
namespace {

TEST(CounterGroupsTest, InsertAndFind) {
  CounterGroups g(4);
  EXPECT_EQ(g.Find(7), -1);
  const int e = g.InsertNew(7);
  EXPECT_GE(e, 0);
  EXPECT_EQ(g.Find(7), e);
  EXPECT_EQ(g.Count(7), 1u);
  EXPECT_EQ(g.live_size(), 1u);
}

TEST(CounterGroupsTest, IncrementMovesBetweenGroups) {
  CounterGroups g(4);
  const int e = g.InsertNew(1);
  g.Increment(e);
  g.Increment(e);
  EXPECT_EQ(g.Count(1), 3u);
  g.InsertNew(2);
  EXPECT_EQ(g.Count(2), 1u);
  EXPECT_EQ(g.MinCount(), 1u);
  EXPECT_EQ(g.MaxCount(), 3u);
}

TEST(CounterGroupsTest, DecrementAllEvictsLowest) {
  CounterGroups g(2);
  const int a = g.InsertNew(10);
  g.Increment(a);       // 10 -> 2
  g.InsertNew(20);      // 20 -> 1, table full
  g.DecrementAll();     // 10 -> 1, 20 -> 0 (zombie)
  EXPECT_EQ(g.Count(10), 1u);
  EXPECT_EQ(g.Count(20), 0u);
  EXPECT_EQ(g.live_size(), 1u);
  EXPECT_FALSE(g.Full());
  EXPECT_EQ(g.decrement_count(), 1u);
}

TEST(CounterGroupsTest, ZombieSlotIsReused) {
  CounterGroups g(2);
  g.InsertNew(1);
  g.InsertNew(2);
  g.DecrementAll();  // both become zombies
  EXPECT_EQ(g.live_size(), 0u);
  g.InsertNew(3);    // must cannibalize a zombie slot
  EXPECT_EQ(g.Count(3), 1u);
  EXPECT_EQ(g.live_size(), 1u);
}

TEST(CounterGroupsTest, FindGarbageCollectsZombies) {
  CounterGroups g(1);
  g.InsertNew(5);
  g.DecrementAll();
  EXPECT_EQ(g.Find(5), -1);  // zombie reads as absent
  EXPECT_FALSE(g.Full());
  g.InsertNew(5);
  EXPECT_EQ(g.Count(5), 1u);
}

TEST(CounterGroupsTest, ReplaceMinSwapsKeyAndIncrements) {
  CounterGroups g(2);
  const int a = g.InsertNew(1);
  g.Increment(a);    // 1 -> 2
  g.InsertNew(2);    // 2 -> 1
  const uint64_t old_min = g.ReplaceMin(3);  // replaces key 2
  EXPECT_EQ(old_min, 1u);
  EXPECT_EQ(g.Count(2), 0u);
  EXPECT_EQ(g.Count(3), 2u);  // min+1
  EXPECT_EQ(g.Count(1), 2u);
}

TEST(CounterGroupsTest, ForEachVisitsLiveEntries) {
  CounterGroups g(8);
  for (uint64_t k = 0; k < 5; ++k) {
    const int e = g.InsertNew(k);
    for (uint64_t c = 0; c < k; ++c) g.Increment(e);
  }
  std::map<uint64_t, uint64_t> seen;
  g.ForEach([&](uint64_t k, uint64_t c) { seen[k] = c; });
  ASSERT_EQ(seen.size(), 5u);
  for (uint64_t k = 0; k < 5; ++k) EXPECT_EQ(seen[k], k + 1);
}

TEST(CounterGroupsTest, SerializeRoundTrip) {
  CounterGroups g(8);
  for (uint64_t k = 0; k < 6; ++k) {
    const int e = g.InsertNew(k * 11);
    for (uint64_t c = 0; c < k * 3; ++c) g.Increment(e);
  }
  BitWriter w;
  g.Serialize(w);
  BitReader r(w);
  CounterGroups g2(8);
  g2.Deserialize(r);
  EXPECT_EQ(g2.capacity(), g.capacity());
  EXPECT_EQ(g2.live_size(), g.live_size());
  for (uint64_t k = 0; k < 6; ++k) {
    EXPECT_EQ(g2.Count(k * 11), g.Count(k * 11));
  }
}

// Differential test against a straightforward map-based Misra-Gries
// reference across random operation streams.
TEST(CounterGroupsTest, MatchesReferenceMisraGries) {
  Rng rng(99);
  const size_t k = 8;
  CounterGroups g(k);
  std::map<uint64_t, uint64_t> ref;

  for (int step = 0; step < 200000; ++step) {
    const uint64_t item = rng.UniformU64(40);
    // Reference MG insert.
    auto it = ref.find(item);
    if (it != ref.end()) {
      ++it->second;
    } else if (ref.size() < k) {
      ref[item] = 1;
    } else {
      for (auto iter = ref.begin(); iter != ref.end();) {
        if (--iter->second == 0) {
          iter = ref.erase(iter);
        } else {
          ++iter;
        }
      }
    }
    // CounterGroups MG insert.
    const int e = g.Find(item);
    if (e >= 0) {
      g.Increment(e);
    } else if (!g.Full()) {
      g.InsertNew(item);
    } else {
      g.DecrementAll();
    }
    if (step % 1000 == 0) {
      for (uint64_t x = 0; x < 40; ++x) {
        const auto rit = ref.find(x);
        const uint64_t expected = rit == ref.end() ? 0 : rit->second;
        ASSERT_EQ(g.Count(x), expected) << "item " << x << " step " << step;
      }
    }
  }
}

TEST(CounterGroupsTest, SpaceBitsAccountsKeysAndCounts) {
  CounterGroups g(4);
  // Capacity-based: 4 slots x (16 key bits + 1 value bit) + offset width.
  EXPECT_EQ(g.SpaceBits(16), 4u * 17u + 1u);
  const int e = g.InsertNew(1);
  for (int i = 0; i < 7; ++i) g.Increment(e);  // max count 8 -> 4 bits
  EXPECT_EQ(g.SpaceBits(16), 4u * 20u + 1u);
}

// ---- The flat core against brute-force references ----------------------

// Misra–Gries over a std::map: increment, insert while there is room, or
// subtract one from every counter and drop the zeros.
class ReferenceMisraGries {
 public:
  explicit ReferenceMisraGries(size_t k) : k_(k) {}

  void Insert(uint64_t x) {
    auto it = counts_.find(x);
    if (it != counts_.end()) {
      ++it->second;
    } else if (counts_.size() < k_) {
      counts_[x] = 1;
    } else {
      ++decrements_;
      for (auto i = counts_.begin(); i != counts_.end();) {
        i = --i->second == 0 ? counts_.erase(i) : std::next(i);
      }
    }
  }

  const std::map<uint64_t, uint64_t>& counts() const { return counts_; }
  uint64_t decrements() const { return decrements_; }

 private:
  size_t k_;
  std::map<uint64_t, uint64_t> counts_;
  uint64_t decrements_ = 0;
};

// Space-Saving over exact counts: which of several tied minimum counters a
// replacement takes is the implementation's choice, so the reference
// tracks what every choice shares — the multiset of counter values — and
// the true frequencies the overestimates are bounded by.
class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(size_t k) : k_(k) {}

  // `tracked` says whether the implementation under test held x before
  // this insert; the value multiset evolves the same either way a
  // tie is broken.
  void Insert(uint64_t x, bool tracked, uint64_t old_count) {
    ++truth_[x];
    if (tracked) {
      Move(old_count, old_count + 1);
    } else if (values_.size() < k_) {
      values_.insert(1);
    } else {
      const uint64_t min = *values_.begin();
      Move(min, min + 1);
    }
  }

  const std::multiset<uint64_t>& values() const { return values_; }
  uint64_t Truth(uint64_t x) const {
    const auto it = truth_.find(x);
    return it == truth_.end() ? 0 : it->second;
  }
  const std::map<uint64_t, uint64_t>& truth() const { return truth_; }

 private:
  void Move(uint64_t from, uint64_t to) {
    values_.erase(values_.find(from));
    values_.insert(to);
  }

  size_t k_;
  std::multiset<uint64_t> values_;
  std::map<uint64_t, uint64_t> truth_;
};

// Entries() order: count descending, then item ascending.
template <typename Entry>
void ExpectEntriesOrdered(const std::vector<Entry>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    const bool ordered =
        entries[i - 1].count > entries[i].count ||
        (entries[i - 1].count == entries[i].count &&
         entries[i - 1].item < entries[i].item);
    ASSERT_TRUE(ordered) << "entries " << i - 1 << " and " << i;
  }
}

void ExpectMatchesReference(const MisraGries& mg,
                            const ReferenceMisraGries& ref,
                            const std::vector<uint64_t>& keys) {
  for (const uint64_t x : keys) {
    const auto it = ref.counts().find(x);
    ASSERT_EQ(mg.Estimate(x), it == ref.counts().end() ? 0 : it->second)
        << "item " << x;
  }
  EXPECT_EQ(mg.ErrorBound(), ref.decrements());
  const auto entries = mg.Entries();
  ExpectEntriesOrdered(entries);
  ASSERT_EQ(entries.size(), ref.counts().size());
  for (const auto& e : entries) EXPECT_EQ(ref.counts().at(e.item), e.count);
}

void ExpectMatchesReference(const SpaceSaving& ss,
                            const ReferenceSpaceSaving& ref, size_t k) {
  const auto entries = ss.Entries();
  ExpectEntriesOrdered(entries);
  std::multiset<uint64_t> values;
  for (const auto& e : entries) values.insert(e.count);
  ASSERT_EQ(values, ref.values());
  const uint64_t min = ref.values().size() < k ? 0 : *ref.values().begin();
  EXPECT_EQ(ss.MinCount(), min);
  // f(x) <= Estimate(x) <= f(x) + MinCount for tracked x, and every
  // untracked x has f(x) <= MinCount.
  for (const auto& [x, f] : ref.truth()) {
    const uint64_t est = ss.Estimate(x);
    if (est == 0) {
      EXPECT_LE(f, min) << "item " << x;
    } else {
      EXPECT_GE(est, f) << "item " << x;
      EXPECT_LE(est, f + min) << "item " << x;
    }
  }
}

MisraGries RoundTrip(const MisraGries& mg) {
  BitWriter w;
  mg.Serialize(w);
  BitReader r(w);
  MisraGries out = MisraGries::Deserialize(r, mg.k());
  EXPECT_FALSE(r.overflow());
  return out;
}

SpaceSaving RoundTrip(const SpaceSaving& ss) {
  BitWriter w;
  ss.Serialize(w);
  BitReader r(w);
  SpaceSaving out = SpaceSaving::Deserialize(r, ss.k());
  EXPECT_FALSE(r.overflow());
  return out;
}

struct DifferentialStream {
  const char* name;
  std::vector<uint64_t> items;
};

constexpr size_t kDiffK = 16;

std::vector<DifferentialStream> DifferentialStreams() {
  std::vector<DifferentialStream> streams;
  std::vector<uint64_t> distinct(4000);
  for (size_t i = 0; i < distinct.size(); ++i) distinct[i] = 1000003 * i;
  streams.push_back({"all-distinct", std::move(distinct)});
  std::vector<uint64_t> round_robin;
  for (int rep = 0; rep < 300; ++rep) {
    for (uint64_t x = 0; x <= kDiffK; ++x) round_robin.push_back(x);
  }
  streams.push_back({"round-robin-k+1", std::move(round_robin)});
  streams.push_back(
      {"zipf-1.1", MakeZipfStream(uint64_t{1} << 32, 1.1, 20000, 3)});
  std::vector<uint64_t> heavy(3000, 42);
  streams.push_back({"single-heavy", std::move(heavy)});
  return streams;
}

std::vector<uint64_t> DistinctKeys(const std::vector<uint64_t>& items) {
  std::vector<uint64_t> keys = items;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Every key's estimate, the error bound and Entries() against the
// references after every stretch of a stream; `cut` also replaces the
// summaries by their Serialize -> Deserialize images halfway through.
void RunDifferential(const DifferentialStream& stream, bool cut) {
  SCOPED_TRACE(std::string(stream.name) + (cut ? " with a cut" : ""));
  MisraGries mg(kDiffK, 32);
  SpaceSaving ss(kDiffK, 32);
  ReferenceMisraGries ref_mg(kDiffK);
  ReferenceSpaceSaving ref_ss(kDiffK);
  const std::vector<uint64_t> keys = DistinctKeys(stream.items);
  const size_t check_every = std::max<size_t>(1, stream.items.size() / 40);
  for (size_t i = 0; i < stream.items.size(); ++i) {
    if (cut && i == stream.items.size() / 2) {
      mg = RoundTrip(mg);
      ss = RoundTrip(ss);
    }
    const uint64_t x = stream.items[i];
    mg.Insert(x);
    ref_mg.Insert(x);
    const uint64_t old = ss.Estimate(x);
    ss.Insert(x);
    ref_ss.Insert(x, old > 0, old);
    if (i % check_every == 0 || i + 1 == stream.items.size()) {
      ExpectMatchesReference(mg, ref_mg, keys);
      ExpectMatchesReference(ss, ref_ss, kDiffK);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CounterGroupsTest, DifferentialAgainstReferences) {
  for (const auto& stream : DifferentialStreams()) {
    RunDifferential(stream, /*cut=*/false);
    RunDifferential(stream, /*cut=*/true);
  }
}

// MinCount / MaxCount / live_size / ForEach order of the core itself,
// driven by the Misra–Gries rule over a small key space (collisions and
// zombie reuse on every few items).
TEST(CounterGroupsTest, MinMaxAndOrderTrackReference) {
  Rng rng(7);
  const size_t k = 5;
  CounterGroups g(k);
  ReferenceMisraGries ref(k);
  for (int step = 0; step < 50000; ++step) {
    const uint64_t x = rng.UniformU64(12);
    ref.Insert(x);
    const int e = g.Find(x);
    if (e >= 0) {
      g.Increment(e);
    } else if (!g.Full()) {
      g.InsertNew(x);
    } else {
      g.DecrementAll();
    }
    uint64_t min = 0, max = 0;
    for (const auto& [key, count] : ref.counts()) {
      min = min == 0 ? count : std::min(min, count);
      max = std::max(max, count);
    }
    ASSERT_EQ(g.MinCount(), min) << "step " << step;
    ASSERT_EQ(g.MaxCount(), max) << "step " << step;
    ASSERT_EQ(g.live_size(), ref.counts().size()) << "step " << step;
    uint64_t previous = 0;
    size_t visited = 0;
    g.ForEach([&](uint64_t key, uint64_t count) {
      EXPECT_GE(count, previous);
      EXPECT_EQ(ref.counts().at(key), count);
      previous = count;
      ++visited;
    });
    ASSERT_EQ(visited, ref.counts().size());
  }
}

// The index's wrap-around probe and backward-shift delete: keys whose
// home is the last cell form a cluster that wraps to cell 0; zombie reuse
// then deletes from its middle.  The home cell — the top bits of the key's
// multiplicative hash — is mirrored here to pick the keys.
TEST(CounterGroupsTest, IndexWrapAroundAndBackwardShift) {
  const size_t k = 4;  // 16 index cells
  const int bits = 4;
  std::vector<uint64_t> wrapping;
  for (uint64_t key = 1; wrapping.size() < 6; ++key) {
    if ((key * 0x9e3779b97f4a7c15ULL) >> (64 - bits) == (1u << bits) - 1) {
      wrapping.push_back(key);
    }
  }
  for (int victim = 0; victim < 4; ++victim) {
    CounterGroups g(k);
    std::map<uint64_t, uint64_t> expected;
    for (int i = 0; i < 4; ++i) {
      const int e = g.InsertNew(wrapping[i]);
      // Distinct counts: wrapping[victim] ends lowest at 1.
      const int extra = i == victim ? 0 : 1 + i;
      for (int c = 0; c < extra; ++c) g.Increment(e);
      expected[wrapping[i]] = 1 + extra;
    }
    ASSERT_TRUE(g.Full());
    g.DecrementAll();  // the victim becomes the only zombie
    for (auto& [key, count] : expected) --count;
    ASSERT_EQ(g.Count(wrapping[victim]), 0u);
    // Reusing the zombie deletes its cell from the wrapped cluster.
    g.InsertNew(wrapping[4]);
    expected[wrapping[4]] = 1;
    expected.erase(wrapping[victim]);
    for (const auto& [key, count] : expected) {
      EXPECT_EQ(g.Count(key), count) << "victim " << victim;
    }
    EXPECT_EQ(g.Count(wrapping[victim]), 0u);
    EXPECT_EQ(g.Find(wrapping[5]), -1);
  }
}

// Keys whose multiplicative hashes differ by one share their index tag (the
// hash's top 32 bits, mirrored here); lookups must still compare the keys.
TEST(CounterGroupsTest, TagCollisionsCompareKeys) {
  const uint64_t multiplier = 0x9e3779b97f4a7c15ULL;
  uint64_t inverse = multiplier;  // Newton: 3 -> 6 -> ... -> 96 bits
  for (int i = 0; i < 5; ++i) inverse *= 2 - multiplier * inverse;
  const uint64_t a = 12345, b = a + inverse;  // b * m == a * m + 1
  ASSERT_EQ((a * multiplier) >> 32, (b * multiplier) >> 32);
  CounterGroups g(4);
  g.Increment(g.InsertNew(a));
  EXPECT_EQ(g.Find(b), -1);
  EXPECT_EQ(g.Count(b), 0u);
  g.InsertNew(b);
  EXPECT_EQ(g.Count(a), 2u);
  EXPECT_EQ(g.Count(b), 1u);
}

// Merges against references built from the inputs' Entries(): Misra–Gries
// subtracts the (k+1)-st largest combined count; Space-Saving adds the
// other side's minimum to one-sided keys and keeps the k largest, a tie at
// the cut keeping the smaller ids.
TEST(CounterGroupsTest, MergesMatchReferences) {
  const size_t k = 24;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const auto left = MakeZipfStream(1 << 12, 1.05, 6000, seed);
    const auto right = MakeZipfStream(1 << 12, 1.05, 9000, seed + 10);
    MisraGries mg_a(k, 32), mg_b(k, 32);
    SpaceSaving ss_a(k, 32), ss_b(k, 32);
    for (const uint64_t x : left) {
      mg_a.Insert(x);
      ss_a.Insert(x);
    }
    for (const uint64_t x : right) {
      mg_b.Insert(x);
      ss_b.Insert(x);
    }

    std::map<uint64_t, uint64_t> mg_sum;
    for (const auto& e : mg_a.Entries()) mg_sum[e.item] += e.count;
    for (const auto& e : mg_b.Entries()) mg_sum[e.item] += e.count;
    std::vector<uint64_t> sums;
    for (const auto& [item, count] : mg_sum) sums.push_back(count);
    std::sort(sums.rbegin(), sums.rend());
    const uint64_t cut = sums.size() > k ? sums[k] : 0;
    const MisraGries mg = MisraGries::Merge(mg_a, mg_b);
    EXPECT_EQ(mg.items_processed(), left.size() + right.size());
    size_t survivors = 0;
    for (const auto& [item, count] : mg_sum) {
      const uint64_t expected = count > cut ? count - cut : 0;
      EXPECT_EQ(mg.Estimate(item), expected) << "item " << item;
      survivors += expected > 0 ? 1 : 0;
    }
    EXPECT_EQ(mg.tracked(), survivors);

    std::map<uint64_t, uint64_t> a, b;
    for (const auto& e : ss_a.Entries()) a[e.item] = e.count;
    for (const auto& e : ss_b.Entries()) b[e.item] = e.count;
    std::vector<SpaceSaving::Entry> combined;
    for (const auto& [item, count] : a) {
      const auto it = b.find(item);
      combined.push_back(
          {item, count + (it == b.end() ? ss_b.MinCount() : it->second)});
    }
    for (const auto& [item, count] : b) {
      if (a.count(item) == 0) {
        combined.push_back({item, count + ss_a.MinCount()});
      }
    }
    std::sort(combined.begin(), combined.end(),
              [](const SpaceSaving::Entry& x, const SpaceSaving::Entry& y) {
                return x.count > y.count ||
                       (x.count == y.count && x.item < y.item);
              });
    if (combined.size() > k) combined.resize(k);
    const auto merged = SpaceSaving::Merge(ss_a, ss_b).Entries();
    ASSERT_EQ(merged.size(), combined.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].item, combined[i].item) << "rank " << i;
      EXPECT_EQ(merged[i].count, combined[i].count) << "rank " << i;
    }
  }
}

// Decode refuses what the encoder never writes, before any allocation.
TEST(CounterGroupsTest, DeserializeRefusesMalformedPayloads) {
  auto encode = [](uint64_t capacity, uint64_t offset,
                   const std::vector<CounterGroups::Counter>& entries) {
    BitWriter w;
    w.WriteGamma(capacity + 1);
    w.WriteCounter(offset);
    w.WriteGamma(entries.size() + 1);
    for (const auto& e : entries) {
      w.WriteU64(e.key);
      w.WriteGamma(e.count);
    }
    return w;
  };
  {  // another capacity than the caller's k
    const BitWriter w = encode(uint64_t{1} << 40, 0, {});
    BitReader r(w);
    CounterGroups g(8);
    g.Deserialize(r);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(g.live_size(), 0u);
  }
  {  // a repeated key
    const BitWriter w = encode(8, 0, {{5, 1}, {5, 2}});
    BitReader r(w);
    CounterGroups g(8);
    g.Deserialize(r);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(g.live_size(), 0u);
  }
  {  // an absolute count past 2^64
    const BitWriter w = encode(8, ~uint64_t{0} - 1, {{5, 3}});
    BitReader r(w);
    CounterGroups g(8);
    g.Deserialize(r);
    EXPECT_TRUE(r.overflow());
  }
  // Out of canonical order (count asc, key asc): a count that falls, and
  // keys of one count out of order.
  for (const auto& entries :
       {std::vector<CounterGroups::Counter>{{9, 4}, {3, 1}},
        std::vector<CounterGroups::Counter>{{1, 1}, {7, 4}, {3, 4}}}) {
    const BitWriter w = encode(8, 2, entries);
    BitReader r(w);
    CounterGroups g(8);
    g.Deserialize(r);
    EXPECT_TRUE(r.overflow());
    EXPECT_EQ(g.live_size(), 0u);
  }
}

// A capacity whose index would outgrow the int handles is refused before
// anything is allocated.
TEST(CounterGroupsTest, CapacityPastLimitAborts) {
  EXPECT_DEATH(CounterGroups(CounterGroups::kMaxCapacity + 1), "exceeds");
}

// The snapshot payload bytes of the counter-group summaries (and of
// bdw_optimal, whose T1 is one) after a seeded stream.  The CRCs were
// computed before the flat layout replaced the linked groups: the state
// and its canonical encoding are unchanged, so no snapshot version moved.
TEST(CounterGroupsTest, SnapshotPayloadsArePinned) {
  SummaryOptions o;
  o.epsilon = 0.02;
  o.phi = 0.05;
  o.delta = 0.1;
  o.universe_size = uint64_t{1} << 20;
  o.stream_length = 40000;
  o.seed = 11;
  const auto stream = MakeZipfStream(o.universe_size, 1.2, o.stream_length,
                                     /*seed=*/5);
  struct Golden {
    const char* name;
    uint32_t crc;
    size_t bits;
  };
  for (const Golden& golden : {Golden{"misra_gries", 0x9eaf6aaau, 2586},
                               Golden{"space_saving", 0xb78dbad7u, 4228},
                               Golden{"bdw_optimal", 0x462fbd6fu, 187681}}) {
    auto summary = MakeSummary(golden.name, o);
    ASSERT_NE(summary, nullptr) << golden.name;
    summary->UpdateColumn(stream.data(), stream.size());
    BitWriter payload;
    ASSERT_TRUE(summary->SaveTo(payload).ok()) << golden.name;
    EXPECT_EQ(payload.size_bits(), golden.bits) << golden.name;
    EXPECT_EQ(Crc32(payload.words().data(), (payload.size_bits() + 7) / 8),
              golden.crc)
        << golden.name;
  }
}

}  // namespace
}  // namespace l1hh
