#include "svc/cache.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "merkle/nodestore.hpp"
#include "telemetry/metrics.hpp"

namespace repro::svc {

namespace {

/// Maps the sidecar in place, or — for a differential link — resolves the
/// delta chain once and adopts the flat re-encoding (so cache hits skip the
/// whole replay).
repro::Result<merkle::MappedBundle> open_sidecar(
    const std::filesystem::path& metadata_path, bool differential) {
  if (!differential) return merkle::MappedBundle::open(metadata_path);
  REPRO_ASSIGN_OR_RETURN(const merkle::MerkleTree tree,
                         merkle::resolve_delta_chain(metadata_path));
  return merkle::MappedBundle::from_bytes(merkle::flat_serialize(tree));
}

/// Global counters shared by every cache instance (the daemon runs one, but
/// tests construct more; counters are monotonic so summing is harmless).
struct CacheMetrics {
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& stale;
  telemetry::Counter& evictions;

  static CacheMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static CacheMetrics* metrics = new CacheMetrics{
        registry.counter("svc.cache.hits"),
        registry.counter("svc.cache.misses"),
        registry.counter("svc.cache.stale"),
        registry.counter("svc.cache.evictions"),
    };
    return *metrics;
  }
};

}  // namespace

MetadataCache::MetadataCache(std::uint64_t byte_budget,
                             std::size_t num_shards)
    : budget_(byte_budget) {
  num_shards = std::max<std::size_t>(1, num_shards);
  shard_budget_ = byte_budget / num_shards;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t MetadataCache::shard_for(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

std::uint64_t MetadataCache::charge_for(const std::string& key,
                                        const BundlePtr& bundle) {
  // Mapped bundles cost their file size (the pages the mapping can keep
  // resident); heap bundles cost their blob. Add the key and a
  // fixed allowance for map/list nodes so byte budgets stay honest for
  // many tiny trees.
  constexpr std::uint64_t kEntryOverhead = 128;
  return bundle->resident_bytes() + key.size() + kEntryOverhead;
}

void MetadataCache::erase_locked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  shard.bytes -= it->second.charge;
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

BundlePtr MetadataCache::insert_locked(Shard& shard, const std::string& key,
                                       const FileIdentity& identity,
                                       BundlePtr bundle) {
  if (auto it = shard.entries.find(key); it != shard.entries.end()) {
    if (it->second.identity == identity) {
      // A racing loader won; adopt its entry (and refresh recency).
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      return it->second.bundle;
    }
    erase_locked(shard, it);  // loaded from another version of the file
  }
  const std::uint64_t charge = charge_for(key, bundle);
  if (charge > shard_budget_) {
    ++shard.bypasses;
    return bundle;  // served, not cached
  }
  while (shard.bytes + charge > shard_budget_ && !shard.lru.empty()) {
    erase_locked(shard, shard.entries.find(shard.lru.back()));
    ++shard.evictions;
    CacheMetrics::get().evictions.increment();
  }
  shard.lru.push_front(key);
  Entry entry;
  entry.bundle = bundle;
  entry.identity = identity;
  entry.charge = charge;
  entry.lru_pos = shard.lru.begin();
  shard.entries.emplace(key, std::move(entry));
  shard.bytes += charge;
  ++shard.insertions;
  return bundle;
}

repro::Result<BundlePtr> MetadataCache::get_or_load(
    const std::string& key,
    const std::function<repro::Result<merkle::MappedBundle>()>& loader,
    bool* hit, const FileIdentity& identity) {
  Shard& shard = *shards_[shard_for(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.entries.find(key); it != shard.entries.end()) {
      if (it->second.identity == identity) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
        ++shard.hits;
        CacheMetrics::get().hits.increment();
        if (hit != nullptr) *hit = true;
        return it->second.bundle;
      }
      // The file was republished since this entry was loaded: the cached
      // tree describes bytes that are gone.
      erase_locked(shard, it);
      ++shard.stale;
      CacheMetrics::get().stale.increment();
    }
    ++shard.misses;
    CacheMetrics::get().misses.increment();
    if (hit != nullptr) *hit = false;
  }

  // Load outside the lock: a slow sidecar read must not serialize every
  // lookup that hashes to this shard.
  REPRO_ASSIGN_OR_RETURN(merkle::MappedBundle loaded, loader());
  BundlePtr bundle =
      std::make_shared<const merkle::MappedBundle>(std::move(loaded));

  std::lock_guard<std::mutex> lock(shard.mu);
  return insert_locked(shard, key, identity, std::move(bundle));
}

BundlePtr MetadataCache::lookup(const std::string& key) {
  Shard& shard = *shards_[shard_for(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    CacheMetrics::get().misses.increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  ++shard.hits;
  CacheMetrics::get().hits.increment();
  return it->second.bundle;
}

void MetadataCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

CacheStats MetadataCache::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.stale += shard->stale;
    total.evictions += shard->evictions;
    total.insertions += shard->insertions;
    total.bypasses += shard->bypasses;
    total.bytes += shard->bytes;
    total.entries += shard->entries.size();
  }
  return total;
}

std::vector<std::string> MetadataCache::shard_keys_mru_first(
    std::size_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  return {shard.lru.begin(), shard.lru.end()};
}

repro::Result<BundlePtr> pin_sidecar(
    MetadataCache& cache, const std::filesystem::path& metadata_path,
    bool* hit, double* load_us) {
  const auto identity = file_identity(metadata_path);
  if (!identity.is_ok()) {
    if (identity.status().code() == repro::StatusCode::kNotFound) {
      return BundlePtr{};
    }
    return identity.status();
  }
  std::error_code ec;
  const auto canonical = std::filesystem::weakly_canonical(metadata_path, ec);
  std::string key = ec ? metadata_path.string() : canonical.string();
  // Differential delta-store sidecars ("iter<j>.rmrk", RMFD-only) hold no
  // tree in place; the key carries the anchor + chain length so distinct
  // resolutions never alias and hits skip the whole replay.
  bool differential = false;
  const std::string filename = metadata_path.filename().string();
  if (filename.starts_with("iter") && filename.ends_with(".rmrk")) {
    const auto probe = merkle::probe_delta_chain(metadata_path);
    if (probe.is_ok() && probe.value().differential) {
      differential = true;
      key += "#a" + std::to_string(probe.value().anchor_iteration) + "+" +
             std::to_string(probe.value().chain_length);
    }
  }
  return cache.get_or_load(
      key,
      [&] {
        Stopwatch clock;
        auto bundle = open_sidecar(metadata_path, differential);
        if (load_us != nullptr) *load_us = clock.seconds() * 1e6;
        return bundle;
      },
      hit, identity.value());
}

}  // namespace repro::svc
