// Micro-benchmarks of the hot primitives: Murmur3F, the error-bounded
// quantizer (per-element and batched-kernel forms), the fused
// quantize+hash chunk pass, element-wise comparison, and pruned tree
// comparison. Useful for regressions; not tied to a specific paper figure.
//
// Doubles as the ctest perf-smoke target: main() always runs a kernel
// equivalence check (batched kernels vs. the scalar reference on
// adversarial inputs) and exits non-zero on any mismatch. The smoke test
// gates on *correctness* of the dispatched kernels, never on timing — CI
// machines are too noisy for wall-clock assertions.
//
// Supports `--json <path>` for machine-readable results (bench_json.hpp)
// and `--artifact-out <path>` to (re)generate the committed
// BENCH_kernels.json perf-trajectory artifact (docs/PERF.md §7) with
// throughput rows for the quantize and fused quantize+hash kernels.
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "common/rng.hpp"
#include "common/timer.hpp"

#include "bench/bench_artifact.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource_sampler.hpp"
#include "telemetry/trace.hpp"
#include "compare/elementwise.hpp"
#include "hash/chunk_hasher.hpp"
#include "hash/kernels.hpp"
#include "hash/murmur3.hpp"
#include "hash/quantize.hpp"
#include "merkle/compare.hpp"
#include "merkle/flat.hpp"
#include "svc/cache.hpp"

namespace {

using namespace repro;

void BM_Murmur3F(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur3f(data, 1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3F)->Arg(16)->Arg(256)->Arg(4096)->Arg(1 << 20);

void BM_Quantize(benchmark::State& state) {
  const auto values = sim::generate_field(4096, 3);
  for (auto _ : state) {
    std::int64_t acc = 0;
    for (const float v : values) acc ^= hash::quantize(v, 1e-6);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_Quantize);

// The batched kernel under both backends. With kScalar this measures the
// per-element reference loop through the same entry point; the gap between
// the two rows is the kernel speedup on this machine.
void BM_QuantizeBlock(benchmark::State& state) {
  const auto backend = static_cast<hash::KernelBackend>(state.range(0));
  const hash::KernelBackend saved = hash::kernel_backend();
  hash::set_kernel_backend(backend);
  const auto values = sim::generate_field(1 << 16, 3);
  std::vector<std::int64_t> lattice(values.size());
  for (auto _ : state) {
    hash::quantize_block_f32(values.data(), values.size(), 1e-6,
                             lattice.data());
    benchmark::DoNotOptimize(lattice.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
  state.SetLabel(std::string(hash::active_kernel_name()));
  hash::set_kernel_backend(saved);
}
BENCHMARK(BM_QuantizeBlock)
    ->Arg(static_cast<int>(hash::KernelBackend::kScalar))
    ->Arg(static_cast<int>(hash::KernelBackend::kAuto));

// Faithful replica of the pre-kernel chunk hot path: quantize one hash
// block at a time into a small lattice buffer, then byte-span Murmur3F per
// block. Kept as the baseline the fused pass is measured against.
void BM_ChunkHash_Legacy(benchmark::State& state) {
  const auto values = sim::generate_field(1 << 16, 9);
  const hash::HashParams params{.error_bound = 1e-6, .values_per_block = 64};
  for (auto _ : state) {
    std::array<std::int64_t, 64> lattice;
    hash::Digest128 digest;
    std::uint64_t block_seed = 0;
    std::size_t pos = 0;
    while (pos < values.size()) {
      const std::size_t count =
          std::min<std::size_t>(params.values_per_block, values.size() - pos);
      for (std::size_t i = 0; i < count; ++i) {
        lattice[i] = hash::quantize(values[pos + i], params.error_bound);
      }
      digest = hash::murmur3f(
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(lattice.data()),
              count * sizeof(std::int64_t)),
          block_seed);
      block_seed = digest.fold();
      pos += count;
    }
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
}
BENCHMARK(BM_ChunkHash_Legacy);

void BM_ChunkHash_Fused(benchmark::State& state) {
  const auto values = sim::generate_field(1 << 16, 9);
  const hash::HashParams params{.error_bound = 1e-6, .values_per_block = 64};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::hash_chunk_f32(values, params));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size() * 4));
  state.SetLabel(std::string(hash::active_kernel_name()));
}
BENCHMARK(BM_ChunkHash_Fused);

void BM_ElementwiseCompare(benchmark::State& state) {
  const auto a = sim::generate_field(static_cast<std::uint64_t>(state.range(0)),
                                     5);
  auto b = a;
  sim::apply_divergence(b, {.region_fraction = 0.05, .region_values = 512,
                            .magnitude = 1e-4});
  const std::span<const std::uint8_t> bytes_a(
      reinterpret_cast<const std::uint8_t*>(a.data()), a.size() * 4);
  const std::span<const std::uint8_t> bytes_b(
      reinterpret_cast<const std::uint8_t*>(b.data()), b.size() * 4);
  cmp::ElementwiseOptions options;
  options.exec = par::Exec::serial();
  for (auto _ : state) {
    const auto result = cmp::compare_region(
        bytes_a, bytes_b, merkle::ValueKind::kF32, 1e-5, 0, options, nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.size() * 4));
}
BENCHMARK(BM_ElementwiseCompare)->Arg(1 << 16)->Arg(1 << 20);

void BM_TreeCompare(benchmark::State& state) {
  static const auto trees = [] {
    const auto a = sim::generate_field(1 << 20, 7);
    auto b = a;
    sim::apply_divergence(b, {.region_fraction = 0.01, .region_values = 1024,
                              .magnitude = 1e-3});
    merkle::TreeParams params;
    params.chunk_bytes = 4096;
    params.hash.error_bound = 1e-5;
    merkle::TreeBuilder builder(params, par::Exec::parallel());
    auto as_bytes = [](const std::vector<float>& v) {
      return std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * 4);
    };
    return std::pair{builder.build(as_bytes(a)).value(),
                     builder.build(as_bytes(b)).value()};
  }();
  merkle::TreeCompareOptions options;
  options.exec = par::Exec::serial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        merkle::compare_trees(trees.first, trees.second, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trees.first.num_chunks()));
}
BENCHMARK(BM_TreeCompare);

// Kernel-equivalence smoke check: dispatched kernels vs. the per-element
// scalar reference on random + adversarial inputs, plus digest equality
// across backends. Runs unconditionally before the benchmarks so the ctest
// perf_smoke target fails on a real kernel bug on THIS machine's ISA.
int kernel_smoke_check() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "kernel smoke FAILED: %s (backend %s)\n", what,
                   std::string(hash::active_kernel_name()).c_str());
      ++failures;
    }
  };

  std::vector<double> values(8192);
  Xoshiro256 rng(42);
  for (auto& v : values) v = (rng.next_double() * 2 - 1) * 100.0;
  values[3] = std::numeric_limits<double>::quiet_NaN();
  values[64] = std::numeric_limits<double>::infinity();
  values[65] = -std::numeric_limits<double>::infinity();
  values[129] = 1e300;
  values[130] = -1e300;
  values[200] = 1.5e-6;  // exact half-cell tie at eps 1e-6
  values[201] = -2.5e-6;
  std::vector<float> values32(values.begin(), values.end());

  for (const double eps : {1e-6, 0.125}) {
    std::vector<std::int64_t> got(values.size());
    hash::quantize_block_f64(values.data(), values.size(), eps, got.data());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (got[i] != hash::quantize(values[i], eps)) {
        check(false, "quantize_block_f64 vs quantize");
        break;
      }
    }
    hash::quantize_block_f32(values32.data(), values32.size(), eps,
                             got.data());
    for (std::size_t i = 0; i < values32.size(); ++i) {
      if (got[i] !=
          hash::quantize(static_cast<double>(values32[i]), eps)) {
        check(false, "quantize_block_f32 vs quantize");
        break;
      }
    }
  }

  const hash::HashParams params{.error_bound = 1e-6, .values_per_block = 64};
  hash::set_kernel_backend(hash::KernelBackend::kScalar);
  const hash::Digest128 scalar_digest = hash::hash_chunk_f32(values32, params);
  hash::set_kernel_backend(hash::KernelBackend::kAuto);
  const hash::Digest128 auto_digest = hash::hash_chunk_f32(values32, params);
  check(scalar_digest == auto_digest, "chunk digest scalar vs dispatched");

  if (failures == 0) {
    std::fprintf(stderr, "kernel smoke OK (dispatched backend: %s)\n",
                 std::string(hash::active_kernel_name()).c_str());
  }
  return failures;
}

// Guards the "compiled-in everywhere" telemetry design decision: with
// tracing DISABLED, a span + counter on a realistic hot block (one 4 KiB
// quantize kernel call) must cost < 3% over the bare kernel. Timing is
// tamed for CI noise: calibrated ~2 ms batches, best-of-N minimum, and a
// couple of full re-measurements before declaring failure.
int telemetry_overhead_check() {
  telemetry::Tracer::global().set_enabled(false);
  static telemetry::Counter& counter =
      telemetry::MetricsRegistry::global().counter("bench.overhead.blocks");

  std::vector<double> values(4096);
  Xoshiro256 rng(7);
  for (auto& v : values) v = (rng.next_double() * 2 - 1) * 100.0;
  std::vector<std::int64_t> out(values.size());
  auto work = [&] {
    hash::quantize_block_f64(values.data(), values.size(), 1e-6, out.data());
    benchmark::DoNotOptimize(out.data());
  };

  // Calibrate the batch size to ~2 ms of work.
  std::uint64_t batch = 64;
  for (;;) {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < batch; ++i) work();
    const double seconds = watch.seconds();
    if (seconds >= 2e-3 || batch >= (1ULL << 22)) break;
    batch *= 2;
  }

  auto best_of = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 7; ++rep) {
      Stopwatch watch;
      body();
      best = std::min(best, watch.seconds());
    }
    return best;
  };

  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double base = best_of([&] {
      for (std::uint64_t i = 0; i < batch; ++i) work();
    });
    const double instrumented = best_of([&] {
      for (std::uint64_t i = 0; i < batch; ++i) {
        telemetry::TraceSpan span("bench.block");
        counter.add(1);
        work();
      }
    });
    const double overhead = instrumented / base - 1.0;
    std::fprintf(stderr,
                 "telemetry overhead (tracing disabled): %.2f%% "
                 "(base %.3fms, instrumented %.3fms, batch %llu)\n",
                 100.0 * overhead, base * 1e3, instrumented * 1e3,
                 static_cast<unsigned long long>(batch));
    if (overhead < 0.03) return 0;
  }
  std::fprintf(stderr,
               "telemetry smoke FAILED: disabled-tracing overhead >= 3%%\n");
  return 1;
}

// Guards the live resource-counter design (src/telemetry/resource_sampler):
// a ResourceSampler ticking at its default period must cost < 2% on the hot
// compare-path kernel, because `repro-cli --trace-out` keeps one running for
// the whole comparison. Same noise taming as telemetry_overhead_check:
// calibrated batches, best-of-N minima, bounded re-measurement.
int resource_sampler_overhead_check() {
  telemetry::Tracer::global().set_enabled(false);

  std::vector<double> values(4096);
  Xoshiro256 rng(11);
  for (auto& v : values) v = (rng.next_double() * 2 - 1) * 100.0;
  std::vector<std::int64_t> out(values.size());
  auto work = [&] {
    hash::quantize_block_f64(values.data(), values.size(), 1e-6, out.data());
    benchmark::DoNotOptimize(out.data());
  };

  std::uint64_t batch = 64;
  for (;;) {
    Stopwatch watch;
    for (std::uint64_t i = 0; i < batch; ++i) work();
    const double seconds = watch.seconds();
    if (seconds >= 2e-3 || batch >= (1ULL << 22)) break;
    batch *= 2;
  }

  auto best_of = [&](auto&& body) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 7; ++rep) {
      Stopwatch watch;
      body();
      best = std::min(best, watch.seconds());
    }
    return best;
  };

  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double base = best_of([&] {
      for (std::uint64_t i = 0; i < batch; ++i) work();
    });
    double sampled = 0;
    {
      telemetry::ResourceSampler sampler;
      sampler.start();  // default period, as repro-cli --trace-out runs it
      sampled = best_of([&] {
        for (std::uint64_t i = 0; i < batch; ++i) work();
      });
      sampler.stop();
    }
    const double overhead = sampled / base - 1.0;
    std::fprintf(stderr,
                 "resource sampler overhead (default period): %.2f%% "
                 "(base %.3fms, sampled %.3fms, batch %llu)\n",
                 100.0 * overhead, base * 1e3, sampled * 1e3,
                 static_cast<unsigned long long>(batch));
    if (overhead < 0.02) return 0;
  }
  std::fprintf(stderr,
               "resource sampler smoke FAILED: sampling overhead >= 2%%\n");
  return 1;
}

// Guards the service warm path: a sidecar served from the MetadataCache
// loads once and every later lookup is a hit. A regression that reloads on
// this path fails the ctest perf_smoke target, not just a slow benchmark
// number.
int metadata_cache_smoke_check() {
  const auto values = sim::generate_field(1 << 14, 13);
  merkle::TreeParams params;
  params.chunk_bytes = 4096;
  params.hash.error_bound = 1e-6;
  const auto tree =
      merkle::TreeBuilder(params, par::Exec::serial())
          .build(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(values.data()),
              values.size() * 4));
  if (!tree.is_ok()) {
    std::fprintf(stderr, "metadata cache smoke FAILED: tree build\n");
    return 1;
  }

  svc::MetadataCache cache(1 << 20, 2);
  for (int i = 0; i < 8; ++i) {
    bool hit = false;
    const auto bundle = cache.get_or_load(
        "smoke",
        [&] {
          return merkle::MappedBundle::from_bytes(
              merkle::flat_serialize(tree.value()));
        },
        &hit);
    if (!bundle.is_ok() || (i > 0 && !hit)) {
      std::fprintf(stderr, "metadata cache smoke FAILED: load/hit\n");
      return 1;
    }
  }
  std::fprintf(stderr, "metadata cache smoke OK (1 load, 7 warm hits)\n");
  return 0;
}

// Trajectory rows for the two kernels the compare hot path is built from:
// the batched quantizer and the fused quantize+hash chunk pass, both
// through the dispatched (kAuto) backend. Each sample times enough batches
// over a 64K-value field to dampen timer granularity; bytes is the f32
// payload one sample processes.
int emit_kernel_trajectory(const std::string& path) {
  constexpr std::size_t kValues = 1 << 16;
  constexpr int kBatches = 16;
  constexpr int kReps = 21;
  const auto values = sim::generate_field(kValues, 3);
  const std::uint64_t bytes_per_sample =
      static_cast<std::uint64_t>(kValues) * sizeof(float) * kBatches;

  std::vector<std::int64_t> lattice(values.size());
  const bench::WallStats quantize = bench::wall_stats_of(kReps, [&] {
    Stopwatch clock;
    for (int i = 0; i < kBatches; ++i) {
      hash::quantize_block_f32(values.data(), values.size(), 1e-6,
                               lattice.data());
      benchmark::DoNotOptimize(lattice.data());
    }
    return clock.seconds() * 1e3;
  });

  const hash::HashParams params{.error_bound = 1e-6, .values_per_block = 64};
  const bench::WallStats fused = bench::wall_stats_of(kReps, [&] {
    Stopwatch clock;
    for (int i = 0; i < kBatches; ++i) {
      benchmark::DoNotOptimize(hash::hash_chunk_f32(values, params));
    }
    return clock.seconds() * 1e3;
  });

  const std::string backend(hash::active_kernel_name());
  const std::string config = strprintf(
      "%d x 64K f32 values, eps=1e-06, %s kernel", kBatches, backend.c_str());
  const std::vector<bench::TrajectoryRow> trajectory = {
      {"kernel_quantize_block_f32", config, quantize.median_ms,
       quantize.p90_ms, bytes_per_sample},
      {"kernel_hash_chunk_fused",
       strprintf("%s, 64-value blocks", config.c_str()), fused.median_ms,
       fused.p90_ms, bytes_per_sample},
  };
  const auto written = bench::write_trajectory(path, "kernels", trajectory);
  if (!written.is_ok()) {
    std::fprintf(stderr, "error: artifact write failed: %s\n",
                 written.to_string().c_str());
    return 1;
  }
  const double gib = static_cast<double>(bytes_per_sample) / (1ULL << 30);
  std::fprintf(stderr,
               "kernel trajectory: quantize %.2f GiB/s, fused hash %.2f "
               "GiB/s (%s) -> %s\n",
               gib / (quantize.median_ms / 1e3),
               gib / (fused.median_ms / 1e3), backend.c_str(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string artifact_path =
      repro::bench::extract_artifact_path(&argc, argv);
  if (kernel_smoke_check() != 0) return 1;
  if (telemetry_overhead_check() != 0) return 1;
  if (resource_sampler_overhead_check() != 0) return 1;
  if (metadata_cache_smoke_check() != 0) return 1;
  if (!artifact_path.empty() && emit_kernel_trajectory(artifact_path) != 0) {
    return 1;
  }
  return repro::bench::run_benchmarks_with_json(argc, argv);
}
