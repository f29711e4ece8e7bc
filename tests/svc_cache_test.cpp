#include "svc/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "merkle/flat.hpp"
#include "merkle/tree.hpp"
#include "par/exec.hpp"
#include "telemetry/metrics.hpp"

namespace repro::svc {
namespace {

merkle::TreeParams small_params() {
  merkle::TreeParams params;
  params.chunk_bytes = 256;
  params.hash.error_bound = 1e-5;
  return params;
}

/// Builds a tree over `bytes` of deterministic data; `seed` varies content.
repro::Result<merkle::MerkleTree> make_tree(std::size_t bytes,
                                            std::uint8_t seed = 0) {
  std::vector<std::uint8_t> data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + seed);
  }
  return merkle::TreeBuilder(small_params(), par::Exec::serial()).build(data);
}

/// A heap-backed bundle over `bytes` of deterministic data — what
/// MappedBundle::open would produce for a sidecar, minus the file.
repro::Result<merkle::MappedBundle> make_bundle(std::size_t bytes,
                                                std::uint8_t seed = 0) {
  auto tree = make_tree(bytes, seed);
  if (!tree.is_ok()) return tree.status();
  return merkle::MappedBundle::from_bytes(
      merkle::flat_serialize(tree.value()));
}

std::uint64_t data_bytes_of(const BundlePtr& bundle) {
  auto view = bundle->sole_tree();
  EXPECT_TRUE(view.is_ok());
  return view.is_ok() ? view.value().data_bytes() : 0;
}

std::uint64_t charge_of(const std::string& key, std::size_t bytes) {
  auto bundle = make_bundle(bytes);
  EXPECT_TRUE(bundle.is_ok());
  // Mirrors MetadataCache::charge_for: resident bytes + key + overhead.
  return bundle.value().resident_bytes() + key.size() + 128;
}

TEST(MetadataCacheTest, HitMissAndInsertionCounters) {
  auto& registry = telemetry::MetricsRegistry::global();
  const std::uint64_t hits0 = registry.counter("svc.cache.hits").value();
  const std::uint64_t misses0 = registry.counter("svc.cache.misses").value();

  MetadataCache cache(1 << 20, 1);
  int loads = 0;
  const auto loader = [&] {
    ++loads;
    return make_bundle(1024);
  };

  bool hit = true;
  auto first = cache.get_or_load("k", loader, &hit);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(hit);
  auto second = cache.get_or_load("k", loader, &hit);
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first.value().get(), second.value().get());

  EXPECT_EQ(cache.lookup("absent"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 2U);  // first load + the absent lookup
  EXPECT_EQ(stats.insertions, 1U);
  EXPECT_EQ(stats.entries, 1U);
  EXPECT_GT(stats.bytes, 0U);

  // The process-wide telemetry counters moved by the same amounts.
  EXPECT_EQ(registry.counter("svc.cache.hits").value() - hits0, 1U);
  EXPECT_EQ(registry.counter("svc.cache.misses").value() - misses0, 2U);
}

TEST(MetadataCacheTest, V2LoadsAndWarmHitsNeverDeserialize) {
  // Warm hits hand back the bundle the first load mapped: the loader (the
  // only step that touches a sidecar) runs once.
  MetadataCache cache(1 << 20, 1);
  int loads = 0;
  BundlePtr first;
  for (int i = 0; i < 3; ++i) {
    bool hit = false;
    auto bundle = cache.get_or_load(
        "v2",
        [&] {
          ++loads;
          return make_bundle(2048);
        },
        &hit);
    ASSERT_TRUE(bundle.is_ok());
    EXPECT_EQ(hit, i > 0);
    if (i == 0) first = bundle.value();
    EXPECT_EQ(bundle.value().get(), first.get());
  }
  EXPECT_EQ(loads, 1);
}

TEST(MetadataCacheTest, EvictionFollowsLruOrder) {
  // Uniform entries: same data size, same key length => same charge.
  const std::uint64_t charge = charge_of("k0", 1024);
  MetadataCache cache(3 * charge, 1);
  ASSERT_EQ(cache.num_shards(), 1U);

  for (const char* key : {"k0", "k1", "k2"}) {
    ASSERT_TRUE(cache.get_or_load(key, [] { return make_bundle(1024); })
                    .is_ok());
  }
  EXPECT_EQ(cache.stats().entries, 3U);

  // Touch k0 so k1 becomes the eviction candidate.
  EXPECT_NE(cache.lookup("k0"), nullptr);
  ASSERT_TRUE(
      cache.get_or_load("k3", [] { return make_bundle(1024); }).is_ok());
  EXPECT_EQ(cache.shard_keys_mru_first(0),
            (std::vector<std::string>{"k3", "k0", "k2"}));

  ASSERT_TRUE(
      cache.get_or_load("k4", [] { return make_bundle(1024); }).is_ok());
  EXPECT_EQ(cache.shard_keys_mru_first(0),
            (std::vector<std::string>{"k4", "k3", "k0"}));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2U);
  EXPECT_EQ(stats.entries, 3U);
  EXPECT_LE(stats.bytes, cache.byte_budget());

  // Evicted keys reload (evicting k0, now the LRU); resident keys do not.
  bool hit = true;
  ASSERT_TRUE(
      cache.get_or_load("k1", [] { return make_bundle(1024); }, &hit)
          .is_ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.shard_keys_mru_first(0),
            (std::vector<std::string>{"k1", "k4", "k3"}));
  ASSERT_TRUE(
      cache.get_or_load("k3", [] { return make_bundle(1024); }, &hit)
          .is_ok());
  EXPECT_TRUE(hit);
}

TEST(MetadataCacheTest, ZeroBudgetServesWithoutCaching) {
  MetadataCache cache(0, 4);
  bool hit = true;
  auto bundle = cache.get_or_load("k", [] { return make_bundle(512); }, &hit);
  ASSERT_TRUE(bundle.is_ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(data_bytes_of(bundle.value()), 512U);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0U);
  EXPECT_EQ(stats.bypasses, 1U);
}

TEST(MetadataCacheTest, EntryLargerThanShardBudgetBypasses) {
  // Budget holds the small bundle but not the big one.
  MetadataCache cache(charge_of("small", 1024), 1);
  ASSERT_TRUE(
      cache.get_or_load("small", [] { return make_bundle(1024); }).is_ok());
  auto big = cache.get_or_load("big", [] { return make_bundle(64 * 1024); });
  ASSERT_TRUE(big.is_ok());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.bypasses, 1U);
  // The resident small entry was not evicted to make room.
  EXPECT_NE(cache.lookup("small"), nullptr);
  EXPECT_EQ(cache.lookup("big"), nullptr);
}

TEST(MetadataCacheTest, LoaderFailureCachesNothing) {
  MetadataCache cache(1 << 20, 1);
  int loads = 0;
  const auto failing = [&]() -> repro::Result<merkle::MappedBundle> {
    ++loads;
    return repro::not_found("sidecar missing");
  };
  EXPECT_FALSE(cache.get_or_load("k", failing).is_ok());
  EXPECT_FALSE(cache.get_or_load("k", failing).is_ok());
  EXPECT_EQ(loads, 2);  // no negative caching
  EXPECT_EQ(cache.stats().entries, 0U);
}

TEST(MetadataCacheTest, ClearDropsEntriesButPinsSurvive) {
  MetadataCache cache(1 << 20, 2);
  auto bundle = cache.get_or_load("k", [] { return make_bundle(2048); });
  ASSERT_TRUE(bundle.is_ok());
  BundlePtr pinned = bundle.value();
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0U);
  EXPECT_EQ(cache.stats().bytes, 0U);
  // The shared_ptr pin keeps the evicted bundle (and the bytes its views
  // point into) fully usable.
  EXPECT_EQ(data_bytes_of(pinned), 2048U);
}

// 16 threads hammering a mix of shared and thread-private keys under byte
// pressure: the sanitize label reruns this under TSAN/ASAN, where lock
// ordering or a data race in the shard logic would trip.
TEST(MetadataCacheTest, ConcurrentHammerStaysConsistent) {
  constexpr int kThreads = 16;
  constexpr int kItersPerThread = 200;
  // Small budget so evictions happen constantly while threads loop.
  MetadataCache cache(24 * charge_of("shared-0", 1024), 8);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Shared keys collide across threads; private keys do not. The
        // key encodes the data size so integrity is checkable below.
        const bool shared = (i % 2) == 0;
        const int slot = shared ? i % 8 : i % 4;
        const std::size_t bytes = 256 * (1 + slot % 4);
        const std::string key = shared
                                    ? "shared-" + std::to_string(slot)
                                    : "own-" + std::to_string(t) + "-" +
                                          std::to_string(slot);
        auto bundle = cache.get_or_load(
            key, [bytes] { return make_bundle(bytes); });
        if (!bundle.is_ok() || bundle.value() == nullptr) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto view = bundle.value()->sole_tree();
        if (!view.is_ok() || view.value().data_bytes() != bytes) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_LE(stats.insertions, stats.misses);
  EXPECT_LE(stats.bytes, cache.byte_budget());
  EXPECT_GT(stats.hits, 0U);
}

}  // namespace
}  // namespace repro::svc
