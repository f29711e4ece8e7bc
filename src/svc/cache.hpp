// Sharded, byte-budgeted LRU cache of mapped Merkle metadata sidecars.
//
// The compare daemon's whole reason to exist: the paper's economy says
// divergence queries only ever need the ~2·D·(N/C) metadata footprint, so a
// resident set of sidecars answers repeat COMPARE/TIMELINE queries with zero
// sidecar I/O. Keys are canonical sidecar identities (one tree per (run,
// iteration, rank) — equivalently per metadata path); values are immutable
// MappedBundles behind shared_ptr: an mmap'd region used in place (zero parse
// work, page-cache-backed, shareable read-only across processes), or a heap
// blob for resolved differential chains. An entry stays alive ("is pinned")
// for as long as any in-flight compare holds it, even if the shard evicts it
// concurrently.
//
// Concurrency: the key space is hash-partitioned over `num_shards`
// independent shards, each with its own mutex, LRU list, and slice of the
// byte budget — 16 handler threads hammering disjoint keys contend only on
// their own shards. Loads run *outside* the shard lock (sidecar reads can
// take milliseconds; blocking every same-shard lookup behind one would
// serialize the daemon); a racing double-load resolves first-insert-wins.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "merkle/flat.hpp"

namespace repro::svc {

using BundlePtr = std::shared_ptr<const merkle::MappedBundle>;

/// Canonical cache identity of one sidecar file. The key is the weakly
/// canonical path — one (run, iteration, rank) tree regardless of how a
/// request named it — and, for differential delta-store sidecars
/// ("iter<j>.rmrk" carrying only an RMFD section), a "#a<anchor>+<len>"
/// suffix describing the resolved chain so distinct resolutions never
/// alias. Shared by every service-side load path (COMPARE pins, LOAD_RUN
/// prewarm, WATCH reference lookups).
struct SidecarKey {
  std::string key;
  bool differential = false;  ///< true when the sidecar is an RMFD chain link
};

[[nodiscard]] SidecarKey sidecar_cache_key(
    const std::filesystem::path& metadata_path);

/// The matching loader for MetadataCache::get_or_load: maps the sidecar in
/// place, or — for a differential link — resolves the delta chain once and
/// adopts the flat re-encoding (so cache hits skip the whole replay).
[[nodiscard]] repro::Result<merkle::MappedBundle> open_sidecar(
    const std::filesystem::path& metadata_path, bool differential);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  /// Entries too large for their shard's budget slice: served to the caller
  /// but never inserted (they would evict an entire shard for one query).
  std::uint64_t bypasses = 0;
  std::uint64_t bytes = 0;    ///< currently charged
  std::uint64_t entries = 0;  ///< currently resident
};

class MetadataCache {
 public:
  /// `byte_budget` is split evenly across `num_shards` shards; eviction is
  /// per-shard LRU. A budget of 0 disables caching (every load bypasses).
  explicit MetadataCache(std::uint64_t byte_budget,
                         std::size_t num_shards = 8);

  MetadataCache(const MetadataCache&) = delete;
  MetadataCache& operator=(const MetadataCache&) = delete;

  /// Returns the cached sidecar for `key`, or runs `loader` and caches the
  /// result. `*hit` (optional) reports whether the lookup was served from
  /// cache. On loader failure nothing is cached and the error propagates.
  repro::Result<BundlePtr> get_or_load(
      const std::string& key,
      const std::function<repro::Result<merkle::MappedBundle>()>& loader,
      bool* hit = nullptr);

  /// Peek without loading: nullptr on miss. Counts as a hit/miss.
  [[nodiscard]] BundlePtr lookup(const std::string& key);

  /// Drops every entry (outstanding shared_ptrs keep their bundles — and
  /// therefore their mappings — alive).
  void clear();

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::uint64_t byte_budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }

  /// Testing hook: keys of one shard, most-recently-used first.
  [[nodiscard]] std::vector<std::string> shard_keys_mru_first(
      std::size_t shard) const;

  /// Shard a key would land in (tests pick colliding / disjoint keys).
  [[nodiscard]] std::size_t shard_for(const std::string& key) const;

 private:
  struct Entry {
    BundlePtr bundle;
    std::uint64_t charge = 0;
    /// Position in Shard::lru (front = most recent).
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  ///< front = MRU, back = eviction candidate
    std::unordered_map<std::string, Entry> entries;
    std::uint64_t bytes = 0;
    // Per-shard tallies; stats() sums them under the shard locks.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t bypasses = 0;
  };

  /// Bytes charged for one entry: resident sidecar bytes (mapped or heap) +
  /// key + bookkeeping.
  static std::uint64_t charge_for(const std::string& key, const BundlePtr& b);

  /// Insert under the shard lock, evicting LRU entries to make room.
  /// Returns the resident bundle (the racing winner's, if someone beat us).
  BundlePtr insert_locked(Shard& shard, const std::string& key,
                          BundlePtr bundle);

  std::uint64_t budget_ = 0;
  std::uint64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace repro::svc
