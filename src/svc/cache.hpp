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
// concurrently. Each entry also records its file's identity (device, inode,
// size, mtime); a lookup whose stat disagrees is a miss that reloads, so a
// sidecar republished in place (temp + rename) is never answered from the
// tree of the bytes it replaced.
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

#include "common/fs.hpp"
#include "common/status.hpp"
#include "merkle/flat.hpp"

namespace repro::svc {

using BundlePtr = std::shared_ptr<const merkle::MappedBundle>;

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Misses on an entry whose file identity changed (republished in place);
  /// also counted in `misses`.
  std::uint64_t stale = 0;
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
  /// result. An entry cached under another `identity` is stale: the lookup
  /// is a miss and the reload replaces it. `*hit` (optional) reports
  /// whether the lookup was served from cache. On loader failure nothing is
  /// cached and the error propagates.
  repro::Result<BundlePtr> get_or_load(
      const std::string& key,
      const std::function<repro::Result<merkle::MappedBundle>()>& loader,
      bool* hit = nullptr, const FileIdentity& identity = {});

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
    FileIdentity identity;
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
    std::uint64_t stale = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t bypasses = 0;
  };

  /// Bytes charged for one entry: resident sidecar bytes (mapped or heap) +
  /// key + bookkeeping.
  static std::uint64_t charge_for(const std::string& key, const BundlePtr& b);

  /// Insert under the shard lock, evicting LRU entries to make room.
  /// Returns the resident bundle (the racing winner's, if someone beat us
  /// with the same identity; one of another identity is replaced).
  BundlePtr insert_locked(Shard& shard, const std::string& key,
                          const FileIdentity& identity, BundlePtr bundle);

  /// Drops one entry under the shard lock.
  static void erase_locked(
      Shard& shard, std::unordered_map<std::string, Entry>::iterator it);

  std::uint64_t budget_ = 0;
  std::uint64_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The one sidecar lookup every service path shares (COMPARE/TIMELINE pins,
/// LOAD_RUN prewarm, WATCH references): one stat for the file's identity,
/// then `cache`, loading the sidecar on a miss. The key is the weakly
/// canonical path — one (run, iteration, rank) tree regardless of how a
/// request named it — plus, for a differential delta-store sidecar
/// ("iter<j>.rmrk" carrying only an RMFD section), its resolved chain, which
/// is loaded once and cached flat. A null bundle when there is no sidecar.
/// `*load_us` (optional) receives the time spent loading on a miss.
[[nodiscard]] repro::Result<BundlePtr> pin_sidecar(
    MetadataCache& cache, const std::filesystem::path& metadata_path,
    bool* hit = nullptr, double* load_us = nullptr);

}  // namespace repro::svc
