// End-to-end tests of the repro-cli binary (spawned as a subprocess), the
// paper's "offline (using a command line tool)" mode. The binary path is
// injected at configure time via REPRO_CLI_BINARY.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "common/fs.hpp"

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_shell(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), got);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult run_cli(const std::string& arguments) {
  return run_shell(std::string(REPRO_CLI_BINARY) + " " + arguments + " 2>&1");
}

class CliTest : public ::testing::Test {
 protected:
  CliTest() : dir_{"cli-test"} {}

  std::string pfs() const { return dir_.path().string(); }

  void simulate(const std::string& run, const std::string& extra = "") {
    const CommandResult result = run_cli(
        "simulate --out " + pfs() + " --run " + run +
        " --particles 4096 --steps 10 --capture-every 5 --mesh 16 " + extra);
    ASSERT_EQ(result.exit_code, 0) << result.output;
  }

  /// One-field F64 checkpoints a.ckpt (2^14 values, all 100.0) and b.ckpt,
  /// which holds 100.0001 at index 1000: 100x the default --eps from a.
  void write_f64_pair() {
    std::vector<double> values(1 << 14, 100.0);
    for (const char* name : {"a.ckpt", "b.ckpt"}) {
      repro::ckpt::CheckpointWriter writer("test", "f64", 1, 0);
      ASSERT_TRUE(writer.add_field_f64("X", values).is_ok());
      ASSERT_TRUE(writer.write(dir_.file(name)).is_ok());
      values[1000] = 100.0001;
    }
  }

  repro::TempDir dir_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  const CommandResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("repro-cli"), std::string::npos);
  EXPECT_NE(result.output.find("simulate"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandNamesItAndExitsTwo) {
  const CommandResult result = run_cli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  // The contract: say which subcommand was unknown, then show usage.
  EXPECT_NE(result.output.find("error: unknown subcommand 'frobnicate'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage"), std::string::npos) << result.output;
}

TEST_F(CliTest, UsageDocumentsServeAndClient) {
  const CommandResult result = run_cli("");
  EXPECT_NE(result.output.find("serve"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("client"), std::string::npos) << result.output;
}

TEST_F(CliTest, SimulateCapturesHistory) {
  simulate("run-1");
  EXPECT_TRUE(std::filesystem::exists(dir_.path() / "run-1" / "iter5" /
                                      "rank0.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir_.path() / "run-1" / "iter10" /
                                      "rank0.rmrk"));
}

TEST_F(CliTest, HistoryAgreesForDeterministicRuns) {
  simulate("run-1");
  simulate("run-2");
  const CommandResult result =
      run_cli("history " + pfs() + " run-1 run-2 --eps 1e-06");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("histories agree"), std::string::npos);
}

TEST_F(CliTest, HistoryDetectsNondeterminism) {
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const CommandResult result =
      run_cli("history " + pfs() + " run-1 run-2 --eps 1e-06");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("first divergence: iteration 5"),
            std::string::npos)
      << result.output;
}

TEST_F(CliTest, CompareMethodsAgreeOnExitCode) {
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const std::string pair = pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
                           "/run-2/iter10/rank0.ckpt";
  for (const char* method : {"ours", "direct", "allclose"}) {
    const CommandResult result = run_cli("compare " + pair + " --eps 1e-06 " +
                                         "--method " + std::string{method});
    EXPECT_EQ(result.exit_code, 1) << method << ": " << result.output;
  }
  // Same file against itself: all methods report agreement.
  const std::string self = pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
                           "/run-1/iter10/rank0.ckpt";
  for (const char* method : {"ours", "direct", "allclose"}) {
    EXPECT_EQ(run_cli("compare " + self + " --eps 1e-06 --method " +
                      std::string{method})
                  .exit_code,
              0)
        << method;
  }
}

TEST_F(CliTest, CompareShowsLocalizedDiffs) {
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const CommandResult result = run_cli(
      "compare " + pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
      "/run-2/iter10/rank0.ckpt --eps 1e-06 --diffs 3");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("sample differences"), std::string::npos);
  EXPECT_NE(result.output.find("chunks flagged"), std::string::npos);
}

TEST_F(CliTest, TreeAndInspect) {
  simulate("run-1");
  const std::string ckpt = pfs() + "/run-1/iter5/rank0.ckpt";
  const CommandResult tree =
      run_cli("tree " + ckpt + " --chunk 4K --eps 1e-05 --out " + pfs() +
              "/custom.rmrk");
  EXPECT_EQ(tree.exit_code, 0) << tree.output;
  EXPECT_NE(tree.output.find("chunks"), std::string::npos);

  const CommandResult inspect_ckpt = run_cli("inspect " + ckpt);
  EXPECT_EQ(inspect_ckpt.exit_code, 0);
  EXPECT_NE(inspect_ckpt.output.find("PHI"), std::string::npos);
  EXPECT_NE(inspect_ckpt.output.find("haccette"), std::string::npos);

  const CommandResult inspect_tree =
      run_cli("inspect " + pfs() + "/custom.rmrk");
  EXPECT_EQ(inspect_tree.exit_code, 0);
  EXPECT_NE(inspect_tree.output.find("root digest"), std::string::npos);
  EXPECT_NE(inspect_tree.output.find("error bound"), std::string::npos);
}

TEST_F(CliTest, TreeOfAnF64CheckpointRecordsF64) {
  write_f64_pair();
  const CommandResult tree =
      run_cli("tree " + pfs() + "/a.ckpt --out " + pfs() + "/a.rmrk");
  ASSERT_EQ(tree.exit_code, 0) << tree.output;
  const CommandResult inspect = run_cli("inspect " + pfs() + "/a.rmrk");
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("value kind    f64"), std::string::npos)
      << inspect.output;
}

TEST_F(CliTest, CompareOfF64CheckpointsCountsWhatDirectCounts) {
  write_f64_pair();
  for (const char* name : {"/a.ckpt", "/b.ckpt"}) {
    const CommandResult tree = run_cli("tree " + pfs() + name);
    ASSERT_EQ(tree.exit_code, 0) << tree.output;
  }
  const std::string pair = pfs() + "/a.ckpt " + pfs() + "/b.ckpt";
  const CommandResult direct = run_cli("compare " + pair + " --method direct");
  EXPECT_EQ(direct.exit_code, 1) << direct.output;
  EXPECT_NE(direct.output.find("direct: 1 values exceed"), std::string::npos)
      << direct.output;
  const CommandResult ours = run_cli("compare " + pair);
  EXPECT_EQ(ours.exit_code, 1) << ours.output;
  EXPECT_NE(ours.output.find("ours: 1 values exceed"), std::string::npos)
      << ours.output;
}

TEST_F(CliTest, VerifyOfAnotherF64CheckpointIsRejected) {
  write_f64_pair();
  const std::string proof = pfs() + "/chunk0.rprf";
  const CommandResult prove =
      run_cli("prove " + pfs() + "/a.ckpt --index 0 --out " + proof);
  ASSERT_EQ(prove.exit_code, 0) << prove.output;
  const auto pin = prove.output.find("pin this root: ");
  ASSERT_NE(pin, std::string::npos);
  const std::string root = prove.output.substr(pin + 15, 32);

  const CommandResult same =
      run_cli("verify " + proof + " " + pfs() + "/a.ckpt --root " + root);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  const CommandResult other =
      run_cli("verify " + proof + " " + pfs() + "/b.ckpt --root " + root);
  EXPECT_EQ(other.exit_code, 1) << other.output;
  EXPECT_NE(other.output.find("REJECTED"), std::string::npos) << other.output;
}

TEST_F(CliTest, VerifyRejectsMalformedRootHex) {
  write_f64_pair();
  const std::string proof = pfs() + "/chunk0.rprf";
  ASSERT_EQ(run_cli("prove " + pfs() + "/a.ckpt --index 0 --out " + proof)
                .exit_code,
            0);
  // Both halves start with a hex digit, so a parse that stops at the first
  // bad character would read a root and give a verdict.
  const CommandResult result =
      run_cli("verify " + proof + " " + pfs() +
              "/a.ckpt --root 1zzzzzzzzzzzzzzz2zzzzzzzzzzzzzzz");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--root is not valid hex"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, DeltaOfF64CheckpointsReconstructsEveryByte) {
  write_f64_pair();
  const std::string store = pfs() + "/delta";
  for (const auto& [iteration, file] :
       {std::pair{"1", "/a.ckpt"}, std::pair{"2", "/b.ckpt"}}) {
    const CommandResult append = run_cli("delta append " + store + " f64 0 " +
                                         iteration + " " + pfs() + file);
    ASSERT_EQ(append.exit_code, 0) << append.output;
  }
  const std::string out = pfs() + "/b.data";
  const CommandResult reconstruct =
      run_cli("delta reconstruct " + store + " f64 0 2 " + out);
  ASSERT_EQ(reconstruct.exit_code, 0) << reconstruct.output;

  const auto restored = repro::read_file(out);
  const auto checkpoint = repro::read_file(dir_.file("b.ckpt"));
  ASSERT_TRUE(restored.is_ok() && checkpoint.is_ok());
  const std::vector<std::uint8_t> data_section(
      checkpoint.value().begin() + repro::ckpt::kHeaderBytes,
      checkpoint.value().end());
  EXPECT_TRUE(restored.value() == data_section);
}

TEST_F(CliTest, InfoRejectsLegacySidecarAndNamesTheFix) {
  // The first bytes of a retired v1 sidecar: "RMRK", version 1, zeroes.
  std::vector<std::uint8_t> legacy(64, 0);
  std::memcpy(legacy.data(), "RMRK", 4);
  legacy[4] = 1;
  const std::string path = pfs() + "/legacy.rmrk";
  ASSERT_TRUE(repro::write_file(path, legacy).is_ok());

  const CommandResult info = run_cli("info " + path);
  EXPECT_EQ(info.exit_code, 2) << info.output;
  EXPECT_NE(info.output.find("legacy v1 sidecar (RMRK) is not supported"),
            std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("repro-cli tree"), std::string::npos)
      << info.output;
}

TEST_F(CliTest, CompareMissingFileFailsCleanly) {
  // Runtime errors share exit code 2 with usage errors, leaving 1 to mean
  // exactly "ran fine, found divergence" (the diff(1) convention).
  const CommandResult result =
      run_cli("compare /nonexistent/a.ckpt /nonexistent/b.ckpt");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("error:"), std::string::npos);
}

TEST_F(CliTest, HistoryOnAnUnreadableCatalogExitsTwo) {
  // run a holds an `iter` entry that is a symlink loop: scanning it fails
  // with ELOOP, which is a runtime error (2), not a crash.
  std::filesystem::create_directories(dir_.path() / "a");
  std::filesystem::create_directories(dir_.path() / "b");
  const std::filesystem::path looping = dir_.path() / "a" / "iter5";
  std::filesystem::create_symlink("iter5", looping);
  const CommandResult result = run_cli("history " + pfs() + " a b");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(looping.string()), std::string::npos)
      << result.output;
}

TEST_F(CliTest, SimulateWithAnUnusableTmpdirExitsTwo) {
  // simulate stages captures in a temp dir; a TMPDIR that does not exist is
  // a runtime error naming it (2), not an uncaught exception (134).
  const std::string missing = pfs() + "/no-such-tmpdir";
  const CommandResult result = run_shell(
      "TMPDIR=" + missing + " " + REPRO_CLI_BINARY + " simulate --out " +
      pfs() + " --run A --particles 1024 --steps 2 --capture-every 2 2>&1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(missing), std::string::npos) << result.output;
}

TEST_F(CliTest, UsagePrintsExitCodeContract) {
  const CommandResult result = run_cli("");
  EXPECT_NE(result.output.find("exit codes"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("1 = divergence found"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, FieldsPerBoundVerdicts) {
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const std::string pair = pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
                           "/run-2/iter10/rank0.ckpt";
  // Sloppy bounds everywhere: passes.
  const CommandResult loose =
      run_cli("fields " + pair + " --default-eps 10 --chunk 4K");
  EXPECT_EQ(loose.exit_code, 0) << loose.output;
  EXPECT_NE(loose.output.find("all fields within"), std::string::npos);
  // Tight bound on one field only: that field diverges. Different bounds
  // need fresh sidecars, so use the iteration-5 pair (the iteration-10
  // .rmrb bundles were built at the loose bounds and are correctly refused
  // for reuse).
  const std::string other_pair = pfs() + "/run-1/iter5/rank0.ckpt " + pfs() +
                                 "/run-2/iter5/rank0.ckpt";
  const CommandResult tight = run_cli(
      "fields " + other_pair +
      " --default-eps 10 --bounds VX=1e-9 --chunk 4K");
  EXPECT_EQ(tight.exit_code, 1) << tight.output;
  EXPECT_NE(tight.output.find("DIVERGED"), std::string::npos);
}

TEST_F(CliTest, ProveAndVerifyRoundTrip) {
  simulate("run-1");
  const std::string ckpt = pfs() + "/run-1/iter10/rank0.ckpt";
  const std::string proof = pfs() + "/chunk3.rprf";
  const CommandResult prove = run_cli("prove " + ckpt +
                                      " --index 3 --chunk 4K --eps 1e-05 "
                                      "--out " + proof);
  ASSERT_EQ(prove.exit_code, 0) << prove.output;
  // Extract the printed root.
  const auto pin = prove.output.find("pin this root: ");
  ASSERT_NE(pin, std::string::npos);
  const std::string root = prove.output.substr(pin + 15, 32);

  const CommandResult ok = run_cli("verify " + proof + " " + ckpt +
                                   " --root " + root +
                                   " --chunk 4K --eps 1e-05");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("OK: chunk 3"), std::string::npos);

  // Wrong root rejected.
  std::string wrong_root = root;
  wrong_root[0] = wrong_root[0] == 'a' ? 'b' : 'a';
  const CommandResult bad = run_cli("verify " + proof + " " + ckpt +
                                    " --root " + wrong_root +
                                    " --chunk 4K --eps 1e-05");
  EXPECT_EQ(bad.exit_code, 1) << bad.output;
  EXPECT_NE(bad.output.find("REJECTED"), std::string::npos);
}

TEST_F(CliTest, DeltaAppendReconstructRoundTrip) {
  simulate("run-1");
  const std::string store = pfs() + "/delta";
  const std::string base_args = "delta append " + store + " run-1 0 ";
  for (const int iteration : {5, 10}) {
    const CommandResult append = run_cli(
        base_args + std::to_string(iteration) + " " + pfs() +
        "/run-1/iter" + std::to_string(iteration) +
        "/rank0.ckpt --chunk 4K --eps 1e-05");
    ASSERT_EQ(append.exit_code, 0) << append.output;
  }
  const CommandResult stats =
      run_cli("delta stats " + store + " run-1 0 --chunk 4K --eps 1e-05");
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("2 iterations"), std::string::npos)
      << stats.output;

  const std::string out = pfs() + "/restored.bin";
  const CommandResult reconstruct = run_cli(
      "delta reconstruct " + store + " run-1 0 5 " + out +
      " --chunk 4K --eps 1e-05");
  EXPECT_EQ(reconstruct.exit_code, 0) << reconstruct.output;
  EXPECT_TRUE(std::filesystem::exists(out));
  // The reconstructed bytes equal the original data section's size.
  EXPECT_EQ(std::filesystem::file_size(out),
            std::filesystem::file_size(pfs() + "/run-1/iter5/rank0.ckpt") -
                4096);
}

TEST_F(CliTest, DeltaRejectsMalformedRankAndIteration) {
  // RANK and ITER are whole unsigned tokens, and a rank fits 32 bits: "-1"
  // must not wrap to rank 4294967295, and "5x" is not iteration 5.
  simulate("run-1");
  const std::string store = pfs() + "/delta";
  const std::string ckpt = pfs() + "/run-1/iter5/rank0.ckpt";
  const std::string flags = " --chunk 4K --eps 1e-05";
  for (const std::string& rank_and_iter :
       {std::string("-1 5"), std::string("4294967296 5"),
        std::string("0x 5"), std::string("0 5x"), std::string("0 -5")}) {
    const CommandResult append = run_cli("delta append " + store + " run-1 " +
                                         rank_and_iter + " " + ckpt + flags);
    EXPECT_EQ(append.exit_code, 2) << rank_and_iter << ": " << append.output;
  }
  EXPECT_FALSE(std::filesystem::exists(store + "/run-1/rank4294967295"));
  EXPECT_FALSE(std::filesystem::exists(store + "/run-1/rank0"));

  ASSERT_EQ(run_cli("delta append " + store + " run-1 0 5 " + ckpt + flags)
                .exit_code,
            0);
  const std::string out = pfs() + "/restored.bin";
  const CommandResult reconstruct = run_cli(
      "delta reconstruct " + store + " run-1 0 5junk " + out + flags);
  EXPECT_EQ(reconstruct.exit_code, 2) << reconstruct.output;
  EXPECT_FALSE(std::filesystem::exists(out));
  const CommandResult timeline =
      run_cli("delta timeline " + store + " run-1 run-1 0x" + flags);
  EXPECT_EQ(timeline.exit_code, 2) << timeline.output;
}

TEST_F(CliTest, FieldsRejectsMalformedBound) {
  simulate("run-1");
  const std::string ckpt = pfs() + "/run-1/iter5/rank0.ckpt";
  const CommandResult result = run_cli("fields " + ckpt + " " + ckpt +
                                       " --bounds X=1e-6abc --chunk 4K");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("bad bound for field X"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, TelemetryOutputsProduceTraceAndMetrics) {
  // Divergent runs so the comparison descends into stage 2 and the io.*
  // counters see real batch traffic.
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const std::string trace_path = pfs() + "/trace.json";
  const std::string metrics_path = pfs() + "/metrics.json";
  const CommandResult result = run_cli(
      "compare " + pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
      "/run-2/iter10/rank0.ckpt --eps 1e-06 --trace-out " + trace_path +
      " --metrics-out " + metrics_path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("trace written to"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("metrics written to"), std::string::npos)
      << result.output;
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  ASSERT_TRUE(std::filesystem::exists(metrics_path));

  // Trace: Chrome trace-event shape with pipeline span names present.
  const auto trace_bytes = repro::read_file(trace_path);
  ASSERT_TRUE(trace_bytes.is_ok()) << trace_bytes.status().message();
  const std::string trace(
      reinterpret_cast<const char*>(trace_bytes.value().data()),
      trace_bytes.value().size());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  for (const char* span :
       {"compare.pair", "merkle.compare", "merkle.bfs.level", "io.batch"}) {
    EXPECT_NE(trace.find(std::string{"\""} + span + "\""), std::string::npos)
        << "missing span " << span;
  }
  // The ResourceSampler auto-starts with --trace-out: "C"-phase counter
  // samples for process resources and internal queue depths must be there.
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos) << trace;
  for (const char* counter :
       {"res.rss_bytes", "res.cpu.user_seconds", "io.uring.inflight",
        "par.pool.queue_depth"}) {
    EXPECT_NE(trace.find(std::string{"\""} + counter + "\""),
              std::string::npos)
        << "missing counter track " << counter;
  }
  EXPECT_NE(result.output.find("counter samples"), std::string::npos)
      << result.output;

  // Metrics report: verdict + nonzero io.*, merkle.*, compare.* counters.
  const auto metrics_bytes = repro::read_file(metrics_path);
  ASSERT_TRUE(metrics_bytes.is_ok()) << metrics_bytes.status().message();
  const std::string metrics(
      reinterpret_cast<const char*>(metrics_bytes.value().data()),
      metrics_bytes.value().size());
  EXPECT_NE(metrics.find("\"tool\": \"compare\""), std::string::npos);
  EXPECT_NE(metrics.find("\"verdict\": \"diverged\""), std::string::npos)
      << metrics;
  // A named counter is present AND nonzero.
  const auto counter_positive = [&metrics](const std::string& name) {
    const std::string needle = "\"" + name + "\": ";
    const auto at = metrics.find(needle);
    ASSERT_NE(at, std::string::npos) << "missing metric " << name;
    const char digit = metrics[at + needle.size()];
    ASSERT_TRUE(digit >= '1' && digit <= '9')
        << name << " is zero or malformed";
  };
  counter_positive("io.read.ops");
  counter_positive("io.read.bytes");
  counter_positive("merkle.compare.count");
  counter_positive("merkle.compare.nodes_visited");
  counter_positive("compare.pairs");
  counter_positive("compare.chunks.total");
  EXPECT_NE(metrics.find("\"timers\""), std::string::npos);
  EXPECT_NE(metrics.find("\"exit_code\": 1"), std::string::npos) << metrics;
  // Build provenance rides along in every run report.
  EXPECT_NE(metrics.find("\"provenance\""), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\"compiler\""), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\"simd_level\""), std::string::npos) << metrics;
}

TEST_F(CliTest, CleanIoPrintsMetricsPointerNotRecoveryLine) {
  simulate("run-1");
  const CommandResult result = run_cli(
      "compare " + pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
      "/run-1/iter10/rank0.ckpt --eps 1e-06");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.find("io recovery"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("--metrics-out"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, BadFlagValueFailsCleanly) {
  EXPECT_EQ(run_cli("simulate --out " + pfs() +
                    " --run r --particles banana")
                .exit_code,
            2);
}

// The forensics acceptance scenario: two runs, two ranks, six capture
// iterations, noise injected at step 7 so the first divergent capture is
// iteration 8 — the timeline must recover exactly that, per field and per
// rank, and degrade gracefully once the history goes ragged.
TEST_F(CliTest, TimelineReportsInjectedFirstDivergence) {
  const std::string base =
      " --particles 4096 --steps 12 --capture-every 2 --mesh 16"
      " --jitter 1e-3 --noise-start 7";
  for (const char* rank : {"0", "1"}) {
    ASSERT_EQ(run_cli("simulate --out " + pfs() + " --run run-1 --rank " +
                      rank + base + " --noise-seed 11")
                  .exit_code,
              0);
    ASSERT_EQ(run_cli("simulate --out " + pfs() + " --run run-2 --rank " +
                      rank + base + " --noise-seed 22")
                  .exit_code,
              0);
  }
  ASSERT_TRUE(std::filesystem::exists(dir_.path() / "run-1" / "iter12" /
                                      "rank1.ckpt"));

  const std::string ledger_path = pfs() + "/ledger.jsonl";
  const CommandResult result =
      run_cli("timeline " + pfs() + " run-1 run-2 --eps 1e-06 --ledger-out " +
              ledger_path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("first divergence: iteration 8"),
            std::string::npos)
      << result.output;
  // Captures before the injection point are bit-identical, so nothing may
  // claim an earlier first divergence...
  for (const char* early : {"diverged at iteration 2 ",
                            "diverged at iteration 4 ",
                            "diverged at iteration 6 "}) {
    EXPECT_EQ(result.output.find(early), std::string::npos) << result.output;
  }
  // ...and the velocity fields (which the jitter hits hardest) must report
  // exactly the injected iteration.
  for (const char* field : {"VX", "VY", "VZ"}) {
    const auto at = result.output.find(std::string{"field "} + field);
    ASSERT_NE(at, std::string::npos) << field << "\n" << result.output;
    const std::string line =
        result.output.substr(at, result.output.find('\n', at) - at);
    EXPECT_NE(line.find("first diverged at iteration 8 "), std::string::npos)
        << line;
  }
  for (const char* rank_line :
       {"rank 0   first diverged at iteration 8",
        "rank 1   first diverged at iteration 8"}) {
    EXPECT_NE(result.output.find(rank_line), std::string::npos)
        << result.output;
  }
  EXPECT_NE(result.output.find("heatmap"), std::string::npos)
      << result.output;

  // The persisted ledger opens with the versioned, provenance-carrying
  // header line.
  const auto ledger_bytes = repro::read_file(ledger_path);
  ASSERT_TRUE(ledger_bytes.is_ok()) << ledger_bytes.status().message();
  const std::string ledger(
      reinterpret_cast<const char*>(ledger_bytes.value().data()),
      ledger_bytes.value().size());
  const std::string header = ledger.substr(0, ledger.find('\n'));
  EXPECT_NE(header.find("\"repro.divergence.ledger\""), std::string::npos);
  EXPECT_NE(header.find("\"version\""), std::string::npos);
  EXPECT_NE(header.find("\"provenance\""), std::string::npos);

  // --json emits the machine form with the same verdict.
  const CommandResult json =
      run_cli("timeline " + pfs() + " run-1 run-2 --eps 1e-06 --json");
  EXPECT_EQ(json.exit_code, 1) << json.output;
  EXPECT_NE(json.output.find("\"repro.divergence.timeline\""),
            std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"first_divergent_iteration\": 8"),
            std::string::npos)
      << json.output;

  // Ragged history: losing run-2's last iteration downgrades coverage but
  // neither crashes nor changes the (earlier) first-divergence verdict.
  std::filesystem::remove_all(dir_.path() / "run-2" / "iter12");
  const CommandResult ragged =
      run_cli("timeline " + pfs() + " run-1 run-2 --eps 1e-06");
  EXPECT_EQ(ragged.exit_code, 1) << ragged.output;
  EXPECT_NE(ragged.output.find("exists only in run-1"), std::string::npos)
      << ragged.output;
  EXPECT_NE(ragged.output.find("first divergence: iteration 8"),
            std::string::npos)
      << ragged.output;

  // The strict history command refuses the ragged pair without --ragged.
  EXPECT_EQ(run_cli("history " + pfs() + " run-1 run-2 --eps 1e-06")
                .exit_code,
            2);
  const CommandResult lenient =
      run_cli("history " + pfs() + " run-1 run-2 --eps 1e-06 --ragged");
  EXPECT_EQ(lenient.exit_code, 1) << lenient.output;
  EXPECT_NE(lenient.output.find("first divergence: iteration 8"),
            std::string::npos)
      << lenient.output;
}

// End-to-end daemon flow through the binary: serve in the background on a
// unix socket, ping it, ask it to shut down, and check it drains cleanly.
TEST_F(CliTest, ServeAndClientRoundTrip) {
  const std::string bin = REPRO_CLI_BINARY;
  const std::string sock = pfs() + "/reprod.sock";
  const std::string script =
      bin + " serve --socket " + sock + " --workers 1 & pid=$!; " +
      "i=0; while [ $i -lt 200 ] && [ ! -S " + sock + " ]; do " +
      "sleep 0.05; i=$((i+1)); done; " +
      bin + " client ping --socket " + sock + "; rc=$?; " +
      bin + " client stats --socket " + sock + "; " +
      bin + " client shutdown --socket " + sock + "; " +
      "wait $pid; serve_rc=$?; exit $((rc + serve_rc))";
  const CommandResult result = run_shell("sh -c '" + script + "' 2>&1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("reprod listening on"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("OK"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"cache\""), std::string::npos)
      << result.output;
}

// `repro-cli watch` against a live daemon, on rank 0 of the history
// TimelineReportsInjectedFirstDivergence simulates: noise from iteration 7,
// so the first divergent capture is iteration 8.
TEST_F(CliTest, WatchReportsInjectedFirstDivergence) {
  const std::string base =
      " --particles 4096 --steps 12 --capture-every 2 --mesh 16"
      " --jitter 1e-3 --noise-start 7";
  ASSERT_EQ(run_cli("simulate --out " + pfs() + " --run run-1" + base +
                    " --noise-seed 11")
                .exit_code,
            0);
  ASSERT_EQ(run_cli("simulate --out " + pfs() + " --run run-2" + base +
                    " --noise-seed 22")
                .exit_code,
            0);

  const std::string bin = REPRO_CLI_BINARY;
  const std::string sock = pfs() + "/reprod.sock";
  const std::string watch = bin + " watch " + pfs() + " ";
  const std::string script =
      bin + " serve --socket " + sock + " --workers 1 & pid=$!; " +
      "i=0; while [ $i -lt 200 ] && [ ! -S " + sock + " ]; do " +
      "sleep 0.05; i=$((i+1)); done; " +
      watch + "run-2 --reference run-1 --socket " + sock + "; " +
      "echo \"== diverged exit $?\"; " +
      watch + "run-1 --reference run-1 --socket " + sock + "; " +
      "echo \"== self exit $?\"; " +
      bin + " client shutdown --socket " + sock + "; " +
      "wait $pid; echo \"== serve exit $?\"";
  const CommandResult result = run_shell("sh -c '" + script + "' 2>&1");
  const std::string& out = result.output;

  const auto split = out.find("== diverged exit ");
  ASSERT_NE(split, std::string::npos) << out;
  const std::string diverged = out.substr(0, split);
  const std::string self = out.substr(split);
  EXPECT_NE(out.find("== diverged exit 1"), std::string::npos) << out;
  for (const char* clean : {"iter2 ", "iter4 ", "iter6 "}) {
    const auto at = diverged.find(clean);
    ASSERT_NE(at, std::string::npos) << clean << "\n" << out;
    const std::string line = diverged.substr(at, diverged.find('\n', at) - at);
    EXPECT_NE(line.find(" clean "), std::string::npos) << line;
  }
  const auto divergent = diverged.find("divergent");
  ASSERT_NE(divergent, std::string::npos) << out;
  EXPECT_EQ(diverged.rfind("iter8 ", divergent),
            diverged.rfind('\n', divergent) + 1)
      << out;
  EXPECT_NE(diverged.find("\"alert_iteration\":8"), std::string::npos) << out;

  EXPECT_NE(self.find("== self exit 0"), std::string::npos) << out;
  EXPECT_EQ(self.find("divergent"), std::string::npos) << out;
  EXPECT_NE(self.find("drained"), std::string::npos) << out;
  EXPECT_NE(self.find("== serve exit 0"), std::string::npos) << out;
}

// The observability acceptance flow across two real processes: a daemon
// and a client, each with its own --trace-out file, joined offline by
// trace-merge via the trace-context trailer the client propagated. The
// daemon's access log carries the same trace identity.
TEST_F(CliTest, TraceMergeJoinsClientAndServerTimelines) {
  const std::string bin = REPRO_CLI_BINARY;
  const std::string sock = pfs() + "/reprod.sock";
  const std::string server_trace = pfs() + "/server-trace.json";
  const std::string client_trace = pfs() + "/client-trace.json";
  const std::string access_log = pfs() + "/access.jsonl";
  const std::string script =
      bin + " serve --socket " + sock + " --workers 1 --trace-out " +
      server_trace + " --access-log " + access_log +
      " --slow-request-ms 0 & pid=$!; " +
      "i=0; while [ $i -lt 200 ] && [ ! -S " + sock + " ]; do " +
      "sleep 0.05; i=$((i+1)); done; " +
      bin + " client ping --socket " + sock + " --trace-out " +
      client_trace + "; rc=$?; " +
      bin + " client shutdown --socket " + sock + "; " +
      "wait $pid; serve_rc=$?; exit $((rc + serve_rc))";
  const CommandResult serve = run_shell("sh -c '" + script + "' 2>&1");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  ASSERT_TRUE(std::filesystem::exists(server_trace));
  ASSERT_TRUE(std::filesystem::exists(client_trace));

  const std::string merged_path = pfs() + "/merged.json";
  const CommandResult merged = run_cli("trace-merge " + client_trace + " " +
                                       server_trace + " --out " +
                                       merged_path);
  EXPECT_EQ(merged.exit_code, 0) << merged.output;
  // The PING round trip must have produced at least one causally matched
  // pair — zero pairs means the trailer never reached the server's span.
  EXPECT_NE(merged.output.find("matched span pairs"), std::string::npos)
      << merged.output;
  EXPECT_EQ(merged.output.find("(0 matched span pairs"), std::string::npos)
      << merged.output;

  const auto merged_bytes = repro::read_file(merged_path);
  ASSERT_TRUE(merged_bytes.is_ok()) << merged_bytes.status().message();
  const std::string doc(
      reinterpret_cast<const char*>(merged_bytes.value().data()),
      merged_bytes.value().size());
  // Both sides' spans in one document, each source named as a process.
  EXPECT_NE(doc.find("\"svc.client.call\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"svc.request\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_NE(doc.find("clock_offset_us"), std::string::npos);

  // The access log records the request under the same schema, slow-flagged
  // (threshold 0) and carrying the client's propagated trace id.
  const auto log_bytes = repro::read_file(access_log);
  ASSERT_TRUE(log_bytes.is_ok()) << log_bytes.status().message();
  const std::string log(
      reinterpret_cast<const char*>(log_bytes.value().data()),
      log_bytes.value().size());
  EXPECT_NE(log.find("\"schema\":\"repro.svc.access\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"verb\":\"PING\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"slow\":true"), std::string::npos) << log;
  EXPECT_NE(log.find("\"trace_id\":\""), std::string::npos) << log;

  // Usage errors exit 2: a missing input or --out is a misuse, not a crash.
  EXPECT_EQ(run_cli("trace-merge " + client_trace).exit_code, 2);
  EXPECT_EQ(run_cli("trace-merge " + pfs() + "/absent.json " + server_trace +
                    " --out " + merged_path)
                .exit_code,
            2);
}

TEST_F(CliTest, CompareWritesLedger) {
  simulate("run-1", "--noise-seed 11 --jitter 1e-4");
  simulate("run-2", "--noise-seed 22 --jitter 1e-4");
  const std::string ledger_path = pfs() + "/pair-ledger.jsonl";
  const CommandResult result = run_cli(
      "compare " + pfs() + "/run-1/iter10/rank0.ckpt " + pfs() +
      "/run-2/iter10/rank0.ckpt --eps 1e-06 --ledger-out " + ledger_path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("ledger written to"), std::string::npos)
      << result.output;
  const auto bytes = repro::read_file(ledger_path);
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().message();
  const std::string ledger(
      reinterpret_cast<const char*>(bytes.value().data()),
      bytes.value().size());
  // Per-field records present (not just the "*" whole-pair fallback).
  EXPECT_NE(ledger.find("\"field\": \"VX\""), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("\"rel_l2_error\""), std::string::npos) << ledger;
}

}  // namespace
