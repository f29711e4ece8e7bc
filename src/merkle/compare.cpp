#include "merkle/compare.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace repro::merkle {
namespace {

struct CompareMetrics {
  telemetry::Counter& compares;
  telemetry::Counter& nodes_visited;
  telemetry::Counter& subtrees_pruned;
  telemetry::Counter& levels;

  static CompareMetrics& get() {
    auto& registry = telemetry::MetricsRegistry::global();
    static CompareMetrics* metrics = new CompareMetrics{
        registry.counter("merkle.compare.count"),
        registry.counter("merkle.compare.nodes_visited"),
        registry.counter("merkle.compare.subtrees_pruned"),
        registry.counter("merkle.compare.levels"),
    };
    return *metrics;
  }
};

/// " (name a vs b, ...)" over the parameters that differ, so a rejected
/// compare says which capture setting to fix.
std::string describe_mismatch(const TreeParams& a, const TreeParams& b) {
  std::ostringstream out;
  auto differ = [&out](const char* name, const auto& x, const auto& y) {
    if (x == y) return;
    out << (out.tellp() == 0 ? " (" : ", ") << name << ' ' << x << " vs "
        << y;
  };
  differ("chunk_bytes", a.chunk_bytes, b.chunk_bytes);
  differ("value_kind", value_kind_name(a.value_kind),
         value_kind_name(b.value_kind));
  differ("error_bound", a.hash.error_bound, b.hash.error_bound);
  differ("values_per_block", a.hash.values_per_block,
         b.hash.values_per_block);
  return out.tellp() == 0 ? std::string{} : out.str() + ")";
}

}  // namespace

std::uint32_t auto_start_level(const TreeLayout& layout, std::size_t ways) {
  const std::uint64_t want = 4 * std::max<std::uint64_t>(ways, 1);
  std::uint32_t level = 0;
  while (level < layout.depth &&
         (std::uint64_t{1} << level) < want) {
    ++level;
  }
  return level;
}

repro::Result<std::vector<std::uint64_t>> compare_trees(
    const TreeView& run_a, const TreeView& run_b,
    const TreeCompareOptions& options, TreeCompareStats* stats) {
  if (!run_a.valid() || !run_b.valid()) {
    return repro::failed_precondition("cannot compare an empty tree view");
  }
  if (run_a.params() != run_b.params()) {
    return repro::failed_precondition(
        "merkle trees built with different parameters" +
        describe_mismatch(run_a.params(), run_b.params()));
  }
  if (run_a.data_bytes() != run_b.data_bytes()) {
    return repro::failed_precondition(
        "merkle trees cover different data sizes (" +
        std::to_string(run_a.data_bytes()) + " vs " +
        std::to_string(run_b.data_bytes()) + ")");
  }

  const TreeLayout& layout = run_a.layout();
  TreeCompareStats local_stats;
  std::vector<std::uint64_t> diff_leaves;

  std::uint32_t level =
      options.start_level < 0
          ? auto_start_level(layout, options.exec.ways())
          : std::min<std::uint32_t>(
                static_cast<std::uint32_t>(options.start_level),
                layout.depth);

  // Seed frontier: every node of the start level.
  std::vector<std::uint64_t> frontier;
  frontier.reserve(std::size_t{1} << level);
  for (std::uint64_t node = TreeLayout::level_begin(level);
       node < TreeLayout::level_end(level); ++node) {
    frontier.push_back(node);
  }

  telemetry::TraceSpan descent_span("merkle.compare");
  std::vector<std::uint8_t> mismatch;
  while (!frontier.empty()) {
    telemetry::TraceSpan level_span("merkle.bfs.level");
    level_span.arg("level", static_cast<std::uint64_t>(level))
        .arg("frontier", static_cast<std::uint64_t>(frontier.size()));
    ++local_stats.levels_traversed;
    local_stats.nodes_visited += frontier.size();

    // Hash comparison of the whole frontier (the per-level kernel), on the
    // pool only when the level is big enough to pay for the fan-out.
    mismatch.assign(frontier.size(), 0);
    const par::Exec level_exec = frontier.size() < kParallelFrontierNodes
                                     ? par::Exec::serial()
                                     : options.exec;
    level_exec.for_each(0, frontier.size(), [&](std::uint64_t i) {
      const std::uint64_t node = frontier[i];
      mismatch[i] = run_a.node(node) != run_b.node(node) ? 1 : 0;
    });

    // Serial compaction between levels (the only synchronization point).
    if (level == layout.depth) {
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (mismatch[i] == 0) continue;
        const std::uint64_t leaf = layout.node_leaf(frontier[i]);
        if (leaf < layout.num_leaves) diff_leaves.push_back(leaf);
      }
      level_span.arg("nodes_pruned", std::uint64_t{0});
      break;
    }

    std::uint64_t pruned_this_level = 0;
    std::vector<std::uint64_t> next;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (mismatch[i] != 0) {
        next.push_back(TreeLayout::left_child(frontier[i]));
        next.push_back(TreeLayout::right_child(frontier[i]));
      } else {
        ++local_stats.subtrees_pruned;
        ++pruned_this_level;
      }
    }
    level_span.arg("nodes_pruned", pruned_this_level);
    frontier = std::move(next);
    ++level;
  }

  CompareMetrics& metrics = CompareMetrics::get();
  metrics.compares.increment();
  metrics.nodes_visited.add(local_stats.nodes_visited);
  metrics.subtrees_pruned.add(local_stats.subtrees_pruned);
  metrics.levels.add(local_stats.levels_traversed);
  descent_span.arg("nodes_visited", local_stats.nodes_visited)
      .arg("subtrees_pruned", local_stats.subtrees_pruned);

  std::sort(diff_leaves.begin(), diff_leaves.end());
  if (stats != nullptr) *stats = local_stats;
  return diff_leaves;
}

repro::Result<std::vector<std::uint64_t>> compare_trees(
    const MerkleTree& run_a, const MerkleTree& run_b,
    const TreeCompareOptions& options, TreeCompareStats* stats) {
  return compare_trees(TreeView(run_a), TreeView(run_b), options, stats);
}

std::vector<std::uint64_t> compare_leaves_bruteforce(const TreeView& run_a,
                                                     const TreeView& run_b) {
  std::vector<std::uint64_t> diff;
  const std::uint64_t count =
      std::min(run_a.num_chunks(), run_b.num_chunks());
  for (std::uint64_t chunk = 0; chunk < count; ++chunk) {
    if (run_a.leaf(chunk) != run_b.leaf(chunk)) diff.push_back(chunk);
  }
  return diff;
}

std::vector<std::uint64_t> compare_leaves_bruteforce(const MerkleTree& run_a,
                                                     const MerkleTree& run_b) {
  return compare_leaves_bruteforce(TreeView(run_a), TreeView(run_b));
}

std::vector<bool> flagged_bitmap(std::span<const std::uint64_t> flagged,
                                 std::uint64_t num_chunks) {
  std::vector<bool> bitmap(static_cast<std::size_t>(num_chunks), false);
  for (const std::uint64_t chunk : flagged) {
    if (chunk < num_chunks) bitmap[static_cast<std::size_t>(chunk)] = true;
  }
  return bitmap;
}

}  // namespace repro::merkle
