// Every compare entry point against one reference: compare_pair,
// compare_histories, OnlineComparator, compare_fields and the daemon's
// COMPARE/TIMELINE verbs must report the values_exceeding that the Direct
// baseline (no metadata, full element-wise scan) computes on the same pair,
// and the entry points that share one tree geometry must flag the same
// chunks. Inputs: three seeds x {identical, sparse, clustered} divergence on
// a three-field F32 checkpoint whose fields straddle chunk boundaries.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/direct.hpp"
#include "common/fs.hpp"
#include "compare/comparator.hpp"
#include "compare/fields.hpp"
#include "compare/online.hpp"
#include "merkle/flat.hpp"
#include "sim/workload.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "telemetry/json_parse.hpp"

namespace repro::cmp {
namespace {

constexpr double kEps = 1e-5;
constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kValuesPerField = 12000;  // 48000 B: not chunk-aligned
constexpr std::uint64_t kIteration = 4;

enum class Mode { kIdentical, kSparse, kClustered };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kIdentical: return "identical";
    case Mode::kSparse: return "sparse";
    case Mode::kClustered: return "clustered";
  }
  return "?";
}

merkle::TreeParams tree_params() {
  merkle::TreeParams params;
  params.chunk_bytes = kChunkBytes;
  params.hash.error_bound = kEps;
  return params;
}

/// Run B's copy of one field: isolated single values (sparse) or contiguous
/// runs covering a tenth of the field (clustered), at 100x the bound.
std::vector<float> diverge(std::vector<float> values, Mode mode,
                           std::uint64_t seed) {
  if (mode == Mode::kSparse) {
    sim::apply_divergence(values, {.region_fraction = 0.002,
                                   .region_values = 1,
                                   .magnitude = 1e-3,
                                   .seed = seed});
  } else if (mode == Mode::kClustered) {
    sim::apply_divergence(values, {.region_fraction = 0.1,
                                   .region_values = 256,
                                   .magnitude = 1e-3,
                                   .seed = seed});
  }
  return values;
}

ckpt::CheckpointWriter make_writer(const std::string& run,
                                   const std::vector<std::vector<float>>& f) {
  ckpt::CheckpointWriter writer("test", run, kIteration, 0);
  EXPECT_TRUE(writer.add_field_f32("X", f[0]).is_ok());
  EXPECT_TRUE(writer.add_field_f32("VX", f[1]).is_ok());
  EXPECT_TRUE(writer.add_field_f32("PHI", f[2]).is_ok());
  return writer;
}

/// Writes one run's checkpoint + capture-time sidecar into the catalog.
void store(const ckpt::HistoryCatalog& catalog,
           const ckpt::CheckpointWriter& writer, const std::string& run) {
  const auto ref = catalog.make_ref(run, kIteration, 0);
  ASSERT_TRUE(ref.is_ok());
  ASSERT_TRUE(writer.write(ref.value().checkpoint_path).is_ok());
  const auto tree = merkle::TreeBuilder(tree_params(), par::Exec::serial())
                        .build(writer.data_section());
  ASSERT_TRUE(tree.is_ok());
  ASSERT_TRUE(
      merkle::save_flat(tree.value(), ref.value().metadata_path).is_ok());
}

CompareOptions compare_options() {
  CompareOptions options;
  options.error_bound = kEps;
  options.tree = tree_params();
  options.backend = io::BackendKind::kPread;
  options.build_metadata_if_missing = false;
  return options;
}

class CompareEngineTest
    : public ::testing::TestWithParam<std::tuple<Mode, std::uint64_t>> {
 protected:
  CompareEngineTest() : dir_{"compare-engine"}, catalog_{dir_.path()} {}

  ~CompareEngineTest() override {
    if (server_ == nullptr) return;
    server_->request_stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  telemetry::JsonValue call(svc::Opcode op, const std::string& payload) {
    svc::ClientOptions options;
    options.socket_path = dir_.file("reprod.sock");
    options.timeout = std::chrono::milliseconds{20000};
    auto client = svc::Client::connect(options);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    if (!client.is_ok()) return {};
    auto reply = client.value().call(op, payload);
    EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
    if (!reply.is_ok()) return {};
    EXPECT_TRUE(reply.value().ok()) << reply.value().payload;
    return telemetry::json_parse(reply.value().payload)
        .value_or(telemetry::JsonValue{});
  }

  void start_server() {
    svc::ServerOptions options;
    options.socket_path = dir_.file("reprod.sock");
    options.workers = 2;
    options.compare = compare_options();
    server_ = std::make_unique<svc::Server>(std::move(options));
    ASSERT_TRUE(server_->start().is_ok());
    serve_thread_ = std::thread([this] { (void)server_->serve(); });
  }

  repro::TempDir dir_;
  ckpt::HistoryCatalog catalog_;
  std::unique_ptr<svc::Server> server_;
  std::thread serve_thread_;
};

TEST_P(CompareEngineTest, EveryEntryPointAgreesWithDirect) {
  const auto [mode, seed] = GetParam();
  std::vector<std::vector<float>> fields_a;
  for (std::uint64_t f = 0; f < 3; ++f) {
    fields_a.push_back(sim::generate_field(kValuesPerField, seed * 10 + f));
  }
  std::vector<std::vector<float>> fields_b = fields_a;
  fields_b[0] = diverge(fields_a[0], mode, seed);
  fields_b[1] = diverge(fields_a[1], mode, seed + 100);
  const ckpt::CheckpointWriter writer_a = make_writer("a", fields_a);
  const ckpt::CheckpointWriter writer_b = make_writer("b", fields_b);
  store(catalog_, writer_a, "a");
  store(catalog_, writer_b, "b");
  const ckpt::CheckpointPair pair{catalog_.ref("a", kIteration, 0),
                                  catalog_.ref("b", kIteration, 0)};

  // Reference: Direct reads both data sections in full, no metadata.
  baseline::DirectOptions direct_options;
  direct_options.error_bound = kEps;
  direct_options.backend = io::BackendKind::kPread;
  const auto direct = baseline::direct_compare(
      pair.run_a.checkpoint_path, pair.run_b.checkpoint_path, direct_options);
  ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
  const std::uint64_t truth = direct.value().values_exceeding;
  if (mode == Mode::kIdentical) {
    EXPECT_EQ(truth, 0U);
  } else {
    EXPECT_GT(truth, 0U);
  }

  const auto pair_report = compare_pair(pair, compare_options());
  ASSERT_TRUE(pair_report.is_ok()) << pair_report.status().to_string();
  EXPECT_EQ(pair_report.value().values_exceeding, truth);
  const std::uint64_t flagged = pair_report.value().chunks_flagged;

  HistoryOptions history_options;
  history_options.pair_options = compare_options();
  const auto history =
      compare_histories(catalog_, "a", "b", history_options);
  ASSERT_TRUE(history.is_ok()) << history.status().to_string();
  ASSERT_EQ(history.value().pairs.size(), 1U);
  EXPECT_EQ(history.value().pairs[0].second.values_exceeding, truth);
  EXPECT_EQ(history.value().pairs[0].second.chunks_flagged, flagged);

  OnlineComparator online(catalog_, "a", compare_options());
  const auto online_report = online.check(writer_b);
  ASSERT_TRUE(online_report.is_ok()) << online_report.status().to_string();
  EXPECT_EQ(online_report.value().values_exceeding, truth);
  EXPECT_EQ(online_report.value().chunks_flagged, flagged);

  // Per-field trees have their own chunk grid, so only the verdict counts
  // are comparable.
  FieldCompareOptions field_options;
  field_options.compare = compare_options();
  field_options.compare.build_metadata_if_missing = true;  // builds .rmrb
  const auto fields = compare_fields(pair.run_a.checkpoint_path,
                                     pair.run_b.checkpoint_path, field_options);
  ASSERT_TRUE(fields.is_ok()) << fields.status().to_string();
  EXPECT_EQ(fields.value().total_exceeding(), truth);

  start_server();
  const std::string root = dir_.path().string();
  const telemetry::JsonValue compared = call(
      svc::Opcode::kCompare,
      "{\"root\":\"" + root + "\",\"run_a\":\"a\",\"run_b\":\"b\"," +
          "\"iteration\":" + std::to_string(kIteration) + ",\"rank\":0}");
  EXPECT_EQ(compared.u64_or("values_exceeding", 999999), truth);
  EXPECT_EQ(compared.u64_or("chunks_flagged", 999999), flagged);

  const telemetry::JsonValue timeline =
      call(svc::Opcode::kTimeline,
           "{\"root\":\"" + root + "\",\"run_a\":\"a\",\"run_b\":\"b\"}");
  const telemetry::JsonValue* rows = timeline.find("pairs");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 1U);
  EXPECT_EQ(rows->array[0].u64_or("values_exceeding", 999999), truth);
  EXPECT_EQ(rows->array[0].u64_or("chunks_flagged", 999999), flagged);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, CompareEngineTest,
    ::testing::Combine(::testing::Values(Mode::kIdentical, Mode::kSparse,
                                         Mode::kClustered),
                       ::testing::Values(1U, 2U, 3U)),
    [](const ::testing::TestParamInfo<CompareEngineTest::ParamType>& info) {
      return std::string(mode_name(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace repro::cmp
