#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "io/checkpoint.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/random.h"
#include "window/sliding_window_summary.h"

namespace l1hh {
namespace {

// Worker idle policy: spin a little (items usually arrive back-to-back),
// then yield, then sleep — so an idle engine does not burn a core, which
// matters on machines where workers share cores with the producers.
class IdleBackoff {
 public:
  void Idle() {
    ++idle_rounds_;
    if (idle_rounds_ < 64) return;
    if (idle_rounds_ < 256) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void Reset() { idle_rounds_ = 0; }

 private:
  unsigned idle_rounds_ = 0;
};

// Ring memory scales as num_shards * max_producers * queue_capacity; cap
// the slot count so a typo cannot request terabytes of rings.
constexpr size_t kMaxProducerSlots = 4096;

// The `unchanged` test of a ShardedEngine::Parked caller that always reads
// the shard summaries.
constexpr auto kAlwaysPark = [] { return false; };

}  // namespace

// ---- Producer handle --------------------------------------------------

ShardedEngine::Producer::Producer(ShardedEngine* engine, size_t slot)
    : engine_(engine), slot_(slot) {}

ShardedEngine::Producer::~Producer() {
  // Slot 0 is the engine's own handle; it dies with the engine and is
  // never recycled through RegisterProducer.
  if (slot_ != 0) engine_->ReleaseProducer(slot_);
}

void ShardedEngine::Producer::Update(uint64_t item, uint64_t weight) {
  const size_t shard = engine_->ShardOf(item);
  if (!engine_->windowed()) {
    for (uint64_t i = 0; i < weight; ++i) {
      engine_->PushBlocking(slot_, shard, &item, 1);
    }
    return;
  }
  engine_->IngestWindowed(
      weight, [this, shard, item](uint64_t, uint64_t count) {
        for (uint64_t i = 0; i < count; ++i) {
          engine_->PushBlocking(slot_, shard, &item, 1);
        }
      });
}

void ShardedEngine::Producer::UpdateBatch(std::span<const uint64_t> items) {
  if (!engine_->windowed()) {
    PartitionPush(items.data(), items.size());
    return;
  }
  // Split the batch at global bucket boundaries: each chunk is enqueued
  // only once its bucket's rotation has fired, so shard buckets always
  // partition the same global position range.
  engine_->IngestWindowed(
      items.size(), [this, items](uint64_t offset, uint64_t count) {
        PartitionPush(items.data() + offset, static_cast<size_t>(count));
      });
}

void ShardedEngine::Producer::PartitionPush(const uint64_t* items, size_t n) {
  ShardedEngine& e = *engine_;
  const size_t num_shards = e.shards_.size();
  if (num_shards == 1) {
    e.PushBlocking(slot_, 0, items, n);
    return;
  }
  // Tile so the scratch stays cache-resident; each tile makes one
  // contiguous ring push per occupied shard instead of one push per item.
  constexpr size_t kTile = 8192;
  part_shards_.resize(std::min(n, kTile));
  part_scratch_.resize(std::min(n, kTile));
  part_starts_.assign(num_shards + 1, 0);
  part_cursors_.assign(num_shards, 0);
  // The sweep below must agree with ShardOf (Mix64 then mod) bit for
  // bit — the differential test compares this route's shard streams
  // against the per-item Update route.  For power-of-two K the modulo
  // reduces to a mask, which keeps the hot loop free of the 64-bit
  // divide and lets the compiler pipeline the mix across items.
  const bool pow2 = (num_shards & (num_shards - 1)) == 0;
  const uint64_t mask = num_shards - 1;
  for (size_t base = 0; base < n; base += kTile) {
    const size_t take = std::min(kTile, n - base);
    // Pass 1: shard ids (a pure Mix64 sweep) plus the per-shard
    // histogram.
    std::fill(part_starts_.begin(), part_starts_.end(), 0);
    if (pow2) {
      for (size_t i = 0; i < take; ++i) {
        const auto s = static_cast<uint32_t>(Mix64(items[base + i]) & mask);
        part_shards_[i] = s;
        ++part_starts_[s + 1];
      }
    } else {
      for (size_t i = 0; i < take; ++i) {
        const auto s =
            static_cast<uint32_t>(Mix64(items[base + i]) % num_shards);
        part_shards_[i] = s;
        ++part_starts_[s + 1];
      }
    }
    for (size_t s = 1; s <= num_shards; ++s) {
      part_starts_[s] += part_starts_[s - 1];
    }
    // Pass 2: scatter into contiguous per-shard runs.
    for (size_t s = 0; s < num_shards; ++s) part_cursors_[s] = part_starts_[s];
    for (size_t i = 0; i < take; ++i) {
      part_scratch_[part_cursors_[part_shards_[i]]++] = items[base + i];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t count = part_starts_[s + 1] - part_starts_[s];
      if (count == 0) continue;
      e.PushBlocking(slot_, s, part_scratch_.data() + part_starts_[s], count);
    }
  }
}

// ---- Construction -----------------------------------------------------

ShardedEngine::Shard::Shard(size_t producer_slots, size_t ring_capacity) {
  rings.reserve(producer_slots);
  for (size_t p = 0; p < producer_slots; ++p) {
    rings.push_back(std::make_unique<SpscRing<uint64_t>>(ring_capacity));
  }
}

std::unique_ptr<ShardedEngine> ShardedEngine::Create(
    const ShardedEngineOptions& options, Status* status) {
  std::vector<std::unique_ptr<Summary>> summaries;
  for (size_t s = 0; s < options.num_shards; ++s) {
    Status make_status;
    summaries.push_back(
        MakeSummary(options.algorithm, options.summary, &make_status));
    if (summaries.back() == nullptr) {
      // The factory's own reason: "unknown summary algorithm" for a bad
      // name, the specific windowed refusal (non-mergeable inner, hostile
      // geometry) for a windowed: spelling.
      if (status != nullptr) *status = std::move(make_status);
      return nullptr;
    }
  }
  // Fresh shards can only fail the set's size rule (K >= 1) or its Merge
  // rule, keyed off the adapter's own SupportsMerge: lossy_counting and
  // sticky_sampling are refused at K > 1.
  return Start(options, std::move(summaries), status);
}

std::unique_ptr<ShardedEngine> ShardedEngine::Start(
    ShardedEngineOptions options,
    std::vector<std::unique_ptr<Summary>> summaries, Status* status) {
  auto fail = [status](Status s) -> std::unique_ptr<ShardedEngine> {
    if (status != nullptr) *status = std::move(s);
    return nullptr;
  };
  if (options.max_producers == 0 ||
      options.max_producers > kMaxProducerSlots) {
    return fail(Status::InvalidArgument(
        "max_producers " + std::to_string(options.max_producers) +
        " is out of range [1, " + std::to_string(kMaxProducerSlots) +
        "] (slot 0 is the engine's own)"));
  }
  uint64_t rotations = 0;
  Status checked = CheckShardSet(summaries, options.algorithm, &rotations);
  if (!checked.ok()) return fail(std::move(checked));
  options.num_shards = summaries.size();
  std::unique_ptr<ShardedEngine> engine(new ShardedEngine(options));
  engine->summaries_ = std::move(summaries);
  // Pre-thread-start stores: the worker pool has not launched yet. A
  // restored prefix is credited to slot 0 — the clock only needs the
  // sums, not the per-slot attribution.
  uint64_t total = 0;
  for (size_t s = 0; s < engine->shards_.size(); ++s) {
    const uint64_t processed = engine->summaries_[s]->ItemsProcessed();
    engine->slots_[0]->enqueued[s].value.store(processed,
                                               std::memory_order_relaxed);
    engine->shards_[s]->applied.store(processed, std::memory_order_relaxed);
    total += processed;
  }
  if (dynamic_cast<SlidingWindowSummary*>(engine->summaries_[0].get()) !=
      nullptr) {
    for (auto& summary : engine->summaries_) {
      auto* window = static_cast<SlidingWindowSummary*>(summary.get());
      // Shard-local update counts must never rotate a ring: all K rings
      // rotate together at global bucket boundaries, driven by the
      // engine.
      window->set_external_rotation(true);
      engine->windows_.push_back(window);
    }
    engine->rotation_stride_ = engine->windows_[0]->bucket_width();
    engine->global_pos_.store(total, std::memory_order_relaxed);
    engine->rotations_done_.store(rotations, std::memory_order_relaxed);
  }
  engine->StartWorkers();
  if (status != nullptr) *status = Status::Ok();
  return engine;
}

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options)
    : options_(options) {
  // drain_batch == 0 would make every worker pop nothing forever and
  // Flush spin-wait indefinitely; clamp rather than hang.
  options_.drain_batch = std::max<size_t>(options_.drain_batch, 1);
  options_.max_producers = std::max<size_t>(options_.max_producers, 1);
  slots_.reserve(options_.max_producers);
  for (size_t p = 0; p < options_.max_producers; ++p) {
    slots_.push_back(std::make_unique<ProducerSlot>(options_.num_shards));
  }
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(options_.max_producers,
                                options_.queue_capacity));
  }
  slots_[0]->active = true;
  controller_.reset(new Producer(this, 0));
}

ShardedEngine::~ShardedEngine() {
  // Contract: external Producer handles are already destroyed (or idle
  // forever), so the enqueued counters are final; drain everything.
  Flush();
  {
    // Publish stop under park_mutex_ so a worker deciding to park cannot
    // miss it (the park predicate re-checks under the same mutex).
    std::lock_guard<std::mutex> lock(park_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  resume_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ShardedEngine::StartWorkers() {
  const size_t shard_count = shards_.size();
  size_t thread_count = options_.num_threads == 0 ? shard_count
                                                  : options_.num_threads;
  thread_count = std::min(std::max<size_t>(thread_count, 1), shard_count);
  workers_.reserve(thread_count);
  // Contiguous shard ranges, remainder spread over the first threads, so
  // every shard has exactly one consumer.
  const size_t base = shard_count / thread_count;
  const size_t extra = shard_count % thread_count;
  size_t first = 0;
  for (size_t t = 0; t < thread_count; ++t) {
    const size_t count = base + (t < extra ? 1 : 0);
    const size_t last = first + count;
    workers_.emplace_back(
        [this, first, last] { WorkerLoop(first, last); });
    first = last;
  }
}

// ---- Worker pool + pause gate -----------------------------------------

void ShardedEngine::WorkerLoop(size_t first_shard, size_t last_shard) {
  std::vector<uint64_t> batch(options_.drain_batch);
  // Resolved once per worker (registry lookup is a cold mutexed path);
  // increments below are relaxed striped adds, once per drained BATCH.
  obs::Counter* const items_ctr =
      obs::GetCounter("l1hh_engine_items_applied_total");
  obs::Histogram* const drain_hist =
      obs::GetHistogram("l1hh_engine_drain_batch_items");
  IdleBackoff backoff;
  while (true) {
    if (pause_.load(std::memory_order_acquire)) WorkerPark();
    size_t drained = 0;
    for (size_t s = first_shard; s < last_shard; ++s) {
      Shard& shard = *shards_[s];
      // Round-robin over the shard's P producer rings, one batch each,
      // so no slot can starve another.
      for (auto& ring : shard.rings) {
        const size_t n = ring->PopBatch(batch.data(), batch.size());
        if (n == 0) continue;
        drained += n;
        // Batch drain: state-identical to the Update loop (the
        // differential battery pins it) but runs the adapters'
        // slice-tuned loops — count_min hashes each drained batch ahead.
        summaries_[s]->UpdateColumn(batch.data(), n);
        // Release-publish the summary mutations; Flush acquires.
        shard.applied.fetch_add(n, std::memory_order_release);
        if (obs::Enabled()) {
          // Occupancy at pop time was n plus whatever is still queued.
          // Single-writer high-water (this worker owns the shard), so a
          // plain load/compare/store suffices — no RMW on the hot path.
          const uint64_t occ = n + ring->ApproxSize();
          if (occ > shard.ring_high_water.load(std::memory_order_relaxed)) {
            shard.ring_high_water.store(occ, std::memory_order_relaxed);
          }
          drain_hist->Observe(n);
          items_ctr->Inc(n);
        }
      }
    }
    if (drained != 0) {
      backoff.Reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // One more pass raced nothing in: all owned rings were empty and no
      // producer can enqueue after stop (the destructor flushed first).
      return;
    }
    backoff.Idle();
  }
}

void ShardedEngine::WorkerPark() {
  std::unique_lock<std::mutex> lock(park_mutex_);
  ++parked_workers_;
  park_cv_.notify_all();
  resume_cv_.wait(lock, [this] {
    return !pause_.load(std::memory_order_relaxed) ||
           stop_.load(std::memory_order_relaxed);
  });
  --parked_workers_;
}

void ShardedEngine::PauseWorkers() {
  static obs::Histogram* const park_hist =
      obs::GetHistogram("l1hh_engine_park_wait_ns");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  std::unique_lock<std::mutex> lock(park_mutex_);
  pause_.store(true, std::memory_order_release);
  park_cv_.wait(lock, [this] { return parked_workers_ == workers_.size(); });
  // All workers are inside WorkerPark with the summaries untouched; the
  // mutex handoff orders their last drains before our reads.
  if (obs_on) {
    park_hist->Observe(obs::TraceRing::NowNs() - t0);
  }
}

void ShardedEngine::ResumeWorkers() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    pause_.store(false, std::memory_order_release);
  }
  resume_cv_.notify_all();
}

// ---- Ingestion --------------------------------------------------------

size_t ShardedEngine::ShardOf(uint64_t item) const {
  // Mix before reducing: raw ids are often sequential, and a plain modulo
  // would stripe them instead of hashing them.
  return shards_.size() == 1
             ? 0
             : static_cast<size_t>(Mix64(item) % shards_.size());
}

void ShardedEngine::PushBlocking(size_t slot, size_t shard_index,
                                 const uint64_t* data, size_t n) {
  SpscRing<uint64_t>& ring = *shards_[shard_index]->rings[slot];
  IdleBackoff backoff;
  size_t done = 0;
  while (done < n) {
    const size_t pushed = ring.PushSome(data + done, n - done);
    if (pushed == 0) {
      backoff.Idle();  // backpressure: ring full, wait for the drain
      continue;
    }
    backoff.Reset();
    done += pushed;
  }
  slots_[slot]->enqueued[shard_index].value.fetch_add(
      n, std::memory_order_release);
}

void ShardedEngine::RotateAtBoundary(uint64_t bucket) {
  static obs::Histogram* const wait_hist =
      obs::GetHistogram("l1hh_engine_rotation_wait_ns");
  static obs::Counter* const rotations_ctr =
      obs::GetCounter("l1hh_engine_rotations_total");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  IdleBackoff backoff;
  // Every earlier bucket has its own boundary owner; wait for all of
  // them, then for every position before this boundary to be applied
  // (positions at or past it are still gated, so applied cannot
  // overshoot).  Both waits happen OUTSIDE state_mutex_: a concurrent
  // query holds that mutex while the workers are parked, and applied
  // could never advance if we held it here.
  while (rotations_done_.load(std::memory_order_acquire) < bucket - 1) {
    backoff.Idle();
  }
  while (TotalApplied() < bucket * rotation_stride_) backoff.Idle();
  {
    // All rings are empty (everything enqueued is applied) and every
    // producer is gated, so the workers cannot touch the summaries; the
    // mutex excludes the only other writers/readers — queries and
    // checkpoints.
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto* window : windows_) window->Rotate();
    // Release-publish: a producer that acquires the new count also sees
    // the rotated windows, and its subsequent ring pushes carry that
    // ordering through to the workers.
    rotations_done_.store(bucket, std::memory_order_release);
  }
  if (obs_on) {
    const uint64_t waited = obs::TraceRing::NowNs() - t0;
    wait_hist->Observe(waited);
    rotations_ctr->Inc();
    obs::Trace(obs::Severity::kDebug, "engine.rotation",
               static_cast<int64_t>(bucket), static_cast<int64_t>(waited));
  }
}

template <typename PushFn>
void ShardedEngine::IngestWindowed(uint64_t total, PushFn&& push) {
  if (total == 0) return;
  // One fetch_add claims a contiguous global position range; bucket
  // membership is decided by position, never by arrival order.
  const uint64_t start =
      global_pos_.fetch_add(total, std::memory_order_relaxed);
  uint64_t offset = 0;
  while (offset < total) {
    const uint64_t pos = start + offset;
    const uint64_t bucket = pos / rotation_stride_;
    if (bucket > rotations_done_.load(std::memory_order_acquire)) {
      if (pos == bucket * rotation_stride_) {
        // This claim owns the bucket's first position, so it performs
        // the lockstep rotation (lazy, matching the standalone ring: the
        // boundary bucket stays live until the first item PAST the
        // boundary arrives, which is this one).
        RotateAtBoundary(bucket);
      } else {
        // Another claim owns the boundary; wait for its rotation.
        IdleBackoff backoff;
        while (rotations_done_.load(std::memory_order_acquire) < bucket) {
          backoff.Idle();
        }
      }
    }
    const uint64_t take =
        std::min(total - offset, (bucket + 1) * rotation_stride_ - pos);
    push(offset, take);
    offset += take;
  }
}

void ShardedEngine::Update(uint64_t item, uint64_t weight) {
  controller_->Update(item, weight);
}

void ShardedEngine::UpdateBatch(std::span<const uint64_t> items) {
  controller_->UpdateBatch(items);
}

// ---- Producer slots ---------------------------------------------------

std::unique_ptr<ShardedEngine::Producer> ShardedEngine::RegisterProducer(
    Status* status) {
  std::lock_guard<std::mutex> lock(producers_mutex_);
  for (size_t p = 1; p < slots_.size(); ++p) {
    if (slots_[p]->active) continue;
    slots_[p]->active = true;
    if (status != nullptr) *status = Status::Ok();
    obs::GetCounter("l1hh_engine_producer_claims_total")->Inc();
    obs::Trace(obs::Severity::kInfo, "engine.slot_claim",
               static_cast<int64_t>(p));
    return std::unique_ptr<Producer>(new Producer(this, p));
  }
  obs::GetCounter("l1hh_engine_producer_claim_failures_total")->Inc();
  obs::Trace(obs::Severity::kWarn, "engine.slot_exhausted",
             static_cast<int64_t>(slots_.size() - 1));
  if (status != nullptr) {
    *status = Status::FailedPrecondition(
        "all " + std::to_string(slots_.size() - 1) +
        " external producer slots are live (max_producers = " +
        std::to_string(slots_.size()) +
        " includes the engine's own slot 0)");
  }
  return nullptr;
}

void ShardedEngine::ReleaseProducer(size_t slot) {
  // The mutex orders the departing owner's last pushes before any claim
  // by the slot's next owner.
  std::lock_guard<std::mutex> lock(producers_mutex_);
  slots_[slot]->active = false;
  obs::GetCounter("l1hh_engine_producer_releases_total")->Inc();
  obs::Trace(obs::Severity::kInfo, "engine.slot_release",
             static_cast<int64_t>(slot));
}

size_t ShardedEngine::active_producers() const {
  std::lock_guard<std::mutex> lock(producers_mutex_);
  size_t live = 0;
  for (size_t p = 1; p < slots_.size(); ++p) {
    if (slots_[p]->active) ++live;
  }
  return live;
}

// ---- Quiescence + queries ---------------------------------------------

uint64_t ShardedEngine::ShardEnqueued(size_t shard_index) const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->enqueued[shard_index].value.load(
        std::memory_order_acquire);
  }
  return total;
}

uint64_t ShardedEngine::TotalApplied() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->applied.load(std::memory_order_acquire);
  }
  return total;
}

void ShardedEngine::Flush() {
  static obs::Histogram* const flush_hist =
      obs::GetHistogram("l1hh_engine_flush_wait_ns");
  static obs::Counter* const flush_ctr =
      obs::GetCounter("l1hh_engine_flushes_total");
  const bool obs_on = obs::Enabled();
  const uint64_t t0 = obs_on ? obs::TraceRing::NowNs() : 0;
  IdleBackoff backoff;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t target = ShardEnqueued(s);
    while (shards_[s]->applied.load(std::memory_order_acquire) < target) {
      backoff.Idle();
    }
  }
  if (obs_on) {
    flush_hist->Observe(obs::TraceRing::NowNs() - t0);
    flush_ctr->Inc();
  }
}

uint64_t ShardedEngine::ItemsProcessed() const { return TotalApplied(); }

uint64_t ShardedEngine::ShardRotations(size_t shard_index) const {
  return windows_.empty() ? 0 : windows_[shard_index]->rotations();
}

std::vector<uint64_t> ShardedEngine::ShardItemCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->applied.load(std::memory_order_acquire));
  }
  return counts;
}

EngineMetrics ShardedEngine::Metrics() const {
  EngineMetrics m;
  m.num_shards = shards_.size();
  m.num_threads = workers_.size();
  m.max_producers = slots_.size();
  m.rotations = rotations_done_.load(std::memory_order_acquire);
  m.shard_applied.reserve(shards_.size());
  m.ring_high_water.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const uint64_t applied = shard->applied.load(std::memory_order_acquire);
    m.shard_applied.push_back(applied);
    m.items_applied += applied;
    m.ring_high_water.push_back(
        shard->ring_high_water.load(std::memory_order_relaxed));
  }
  std::lock_guard<std::mutex> lock(producers_mutex_);
  m.slot_enqueued.resize(slots_.size(), 0);
  m.slot_active.resize(slots_.size(), 0);
  for (size_t p = 0; p < slots_.size(); ++p) {
    uint64_t enqueued = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      enqueued +=
          slots_[p]->enqueued[s].value.load(std::memory_order_acquire);
    }
    m.slot_enqueued[p] = enqueued;
    const bool live = p == 0 || slots_[p]->active;
    m.slot_active[p] = live ? 1 : 0;
    if (p > 0 && live) ++m.active_producers;
  }
  return m;
}

void ShardedEngine::PublishMetrics() const {
  const EngineMetrics m = Metrics();
  obs::GetGauge("l1hh_engine_active_producers")
      ->Set(static_cast<int64_t>(m.active_producers));
  obs::GetGauge("l1hh_engine_max_producers")
      ->Set(static_cast<int64_t>(m.max_producers));
  for (size_t s = 0; s < m.num_shards; ++s) {
    const std::string label = "shard=\"" + std::to_string(s) + "\"";
    obs::GetGauge("l1hh_engine_shard_applied", label)
        ->Set(static_cast<int64_t>(m.shard_applied[s]));
    obs::GetGauge("l1hh_engine_ring_occupancy_high_water", label)
        ->Set(static_cast<int64_t>(m.ring_high_water[s]));
  }
  for (size_t p = 0; p < m.slot_enqueued.size(); ++p) {
    obs::GetGauge("l1hh_engine_slot_enqueued",
                  "slot=\"" + std::to_string(p) + "\"")
        ->Set(static_cast<int64_t>(m.slot_enqueued[p]));
  }
}

template <typename Unchanged, typename Fn>
auto ShardedEngine::Parked(Unchanged&& unchanged, Fn&& fn) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  bool park = false;
  {
    obs::ScopedPhase phase("park_wait");
    Flush();
    park = !unchanged();
    if (park) PauseWorkers();
  }
  auto result = fn();
  if (park) ResumeWorkers();
  return result;
}

template <typename Read>
auto ShardedEngine::ReadView(Read&& read) {
  // The key is read after the flush; the header says why an equal key
  // means merged_ covers every item enqueued before this query.
  // Rotations move only under state_mutex_, which Parked holds.
  const Summary* view = nullptr;
  uint64_t rotations = 0;
  return Parked(
      [&] {
        rotations = rotations_done_.load(std::memory_order_acquire);
        view = merged_.Cached(summaries_.size(), TotalApplied(), rotations);
        return view != nullptr;
      },
      [&] {
        if (view == nullptr) {
          // Parked now, so the key is read again: the rebuild's own state.
          const Status s =
              merged_.View(summaries_, TotalApplied(), rotations, &view);
          if (!s.ok()) {
            // A silent partial merge would corrupt the global report.
            std::fprintf(stderr, "ShardedEngine: shard merge failed: %s\n",
                         s.ToString().c_str());
            std::abort();
          }
        }
        obs::ScopedPhase report("report");
        return read(*view);
      });
}

const Summary& ShardedEngine::MergedView() {
  // LEGACY contract (see header): controller thread only, producers
  // quiescent — the returned reference is read after the workers resume.
  return *ReadView([](const Summary& view) { return &view; });
}

// The query spans below are inert (flattened) when a serving front end
// already opened a verb span on this thread; they stand alone for direct
// embedders.
double ShardedEngine::Estimate(uint64_t item) {
  obs::QuerySpan span("estimate");
  return ReadView([item](const Summary& view) { return view.Estimate(item); });
}

std::vector<double> ShardedEngine::EstimateBatch(
    const std::vector<uint64_t>& items) {
  obs::QuerySpan span("estimate");
  return ReadView([&items](const Summary& view) {
    std::vector<double> estimates;
    estimates.reserve(items.size());
    for (const uint64_t item : items) estimates.push_back(view.Estimate(item));
    return estimates;
  });
}

std::vector<ItemEstimate> ShardedEngine::HeavyHitters(double phi) {
  obs::QuerySpan span("heavy");
  return ReadView(
      [phi](const Summary& view) { return view.HeavyHitters(phi); });
}

size_t ShardedEngine::MemoryUsageBytes() {
  return Parked(kAlwaysPark, [this] {
    size_t total = merged_.MemoryUsageBytes();
    for (const auto& summary : summaries_) {
      total += summary->MemoryUsageBytes();
    }
    for (const auto& shard : shards_) {
      for (const auto& ring : shard->rings) {
        total += ring->capacity() * sizeof(uint64_t);
      }
    }
    return total;
  });
}

// ---- Checkpoint / Restore ---------------------------------------------

Status ShardedEngine::CaptureFramesLocked(
    const std::vector<ShardBaseline>& baselines, uint32_t max_delta_chain,
    std::vector<ShardFrame>* frames, uint64_t* total_applied) {
  frames->clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t applied =
        shards_[s]->applied.load(std::memory_order_acquire);
    const uint64_t rotations = ShardRotations(s);
    const ShardBaseline base =
        s < baselines.size() ? baselines[s] : ShardBaseline{};
    if (base.Holds(applied, rotations)) {
      continue;  // clean: the consumer already holds exactly this state
    }
    // A delta only exists for a windowed shard whose baseline precedes
    // the live clocks, whose dirty tail still fits inside the ring, and
    // whose chain has not hit the replay-length bound.
    const bool can_delta =
        base.valid && !windows_.empty() && base.chain < max_delta_chain &&
        base.applied <= applied && base.rotations <= rotations &&
        rotations - base.rotations + 1 < windows_[s]->num_buckets();
    ShardFrame frame{s, can_delta, applied, rotations, {}};
    const Status saved =
        can_delta ? SaveSummaryDelta(*summaries_[s], base.rotations,
                                     base.applied, &frame.bytes)
                  : SaveSummary(*summaries_[s], &frame.bytes);
    if (!saved.ok()) return saved;
    frames->push_back(std::move(frame));
  }
  if (total_applied != nullptr) *total_applied = TotalApplied();
  return Status::Ok();
}

Status ShardedEngine::CaptureFrames(
    const std::vector<ShardBaseline>& baselines, uint32_t max_delta_chain,
    std::vector<ShardFrame>* frames, uint64_t* total_applied) {
  // A consumer that holds every shard's live clocks gets no frames, and
  // the workers stay live: the clean test reads only the clocks. The
  // total is the sum the test compared, so it matches the baselines even
  // if a worker applies more right after.
  bool clean = false;
  return Parked(
      [&] {
        uint64_t total = 0;
        for (size_t s = 0; s < shards_.size(); ++s) {
          const uint64_t applied =
              shards_[s]->applied.load(std::memory_order_acquire);
          if (s >= baselines.size() ||
              !baselines[s].Holds(applied, ShardRotations(s))) {
            return false;
          }
          total += applied;
        }
        if (total_applied != nullptr) *total_applied = total;
        return clean = true;
      },
      [&] {
        if (clean) {
          frames->clear();
          return Status::Ok();
        }
        return CaptureFramesLocked(baselines, max_delta_chain, frames,
                                   total_applied);
      });
}

Status ShardedEngine::WriteCheckpoint(const std::string& dir,
                                      bool incremental) {
  obs::Trace(obs::Severity::kInfo, "checkpoint.begin", incremental ? 1 : 0);
  const uint64_t t0 = obs::TraceRing::NowNs();
  std::vector<ShardFrame> frames;
  const Status result = Parked(kAlwaysPark, [&]() -> Status {
    Manifest next;
    Status s = BeginCheckpoint(dir, options_.algorithm, shards_.size(),
                               incremental, &next);
    if (s.ok()) {
      s = CaptureFramesLocked(next.shards, kMaxDeltaChain, &frames,
                              &next.items_processed);
    }
    return s.ok() ? WriteCheckpointGeneration(dir, frames, &next) : s;
  });
  if (result.ok()) {
    uint64_t frame_bytes = 0;
    uint64_t delta_frames = 0;
    for (const ShardFrame& frame : frames) {
      frame_bytes += frame.bytes.size();
      delta_frames += frame.delta ? 1 : 0;
    }
    obs::GetCounter("l1hh_io_checkpoints_total",
                    incremental ? "kind=\"delta\"" : "kind=\"full\"")
        ->Inc();
    obs::GetCounter("l1hh_io_checkpoint_frames_total", "kind=\"full\"")
        ->Inc(frames.size() - delta_frames);
    obs::GetCounter("l1hh_io_checkpoint_frames_total", "kind=\"delta\"")
        ->Inc(delta_frames);
    obs::GetCounter("l1hh_io_checkpoint_bytes_total")->Inc(frame_bytes);
    obs::GetHistogram("l1hh_io_checkpoint_ns")
        ->Observe(obs::TraceRing::NowNs() - t0);
    obs::Trace(obs::Severity::kInfo, "checkpoint.commit",
               static_cast<int64_t>(frames.size()),
               static_cast<int64_t>(frame_bytes));
  } else {
    obs::GetCounter("l1hh_io_checkpoint_failures_total")->Inc();
    obs::Trace(obs::Severity::kWarn, "checkpoint.fail");
  }
  return result;
}

Status ShardedEngine::Checkpoint(const std::string& dir) {
  return WriteCheckpoint(dir, /*incremental=*/false);
}

Status ShardedEngine::CheckpointDelta(const std::string& dir) {
  return WriteCheckpoint(dir, /*incremental=*/true);
}

std::unique_ptr<ShardedEngine> ShardedEngine::Restore(
    const std::string& dir, const ShardedEngineOptions& exec,
    Status* status) {
  std::unique_ptr<ShardedEngine> engine;
  Status restored = RestoreNewestGeneration(
      dir, [&](const Manifest& manifest,
               const std::vector<ShardFrame>& frames) {
        std::vector<std::unique_ptr<Summary>> shards(manifest.shards.size());
        StagedShardSet staged(&shards);
        // A refusal sticks: Commit returns the first one.
        for (const ShardFrame& frame : frames) staged.Apply(frame);
        Status s = staged.Commit(manifest.algorithm, manifest.items_processed);
        if (!s.ok()) return s;
        ShardedEngineOptions options = exec;
        options.algorithm = manifest.algorithm;
        options.summary = shards[0]->Options();
        engine = Start(options, std::move(shards), &s);
        return s;
      });
  if (status != nullptr) *status = std::move(restored);
  return engine;
}

std::unique_ptr<ShardedEngine> ShardedEngine::Restore(const std::string& dir,
                                                      Status* status) {
  return Restore(dir, ShardedEngineOptions{}, status);
}

}  // namespace l1hh
