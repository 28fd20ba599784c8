// PERF-10: durability overhead — statements/sec through a durable
// caldb::Engine at each fsync policy, against the in-memory engine as the
// baseline.
//
// Each run appends small rows through Engine::Execute, so the measured
// delta is exactly the WAL path: encode + append (+ fsync per policy).
// The ISSUE-7 acceptance bar: fsync=batch costs less than 2x the
// in-memory statement rate (kAlways is expected to be disk-bound and far
// slower; kOff should sit within noise of kBatch).
//
// Auto-checkpointing is disabled so a mid-run snapshot never pollutes a
// timing; each benchmark gets a fresh data directory under the system
// temp dir.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "caldb.h"

namespace caldb {
namespace {

std::string FreshDataDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("caldb_bench_wal_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::unique_ptr<Engine> MakeEngine(const std::string& data_dir,
                                   storage::FsyncPolicy policy) {
  EngineOptions opts;
  opts.data_dir = data_dir;  // "" = in-memory baseline
  opts.fsync_policy = policy;
  opts.checkpoint_wal_bytes = 0;  // no auto-checkpoint mid-benchmark
  auto engine = Engine::Create(opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "bench_wal setup failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  auto r = (*engine)->Execute("create table burst (n int)");
  if (!r.ok()) {
    std::fprintf(stderr, "bench_wal create failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).value();
}

void RunAppendLoop(benchmark::State& state, Engine& engine) {
  int64_t i = 0;
  for (auto _ : state) {
    Result<QueryResult> r =
        engine.Execute("append burst (n = " + std::to_string(i++ & 1023) + ")");
    if (!r.ok()) {
      state.SkipWithError("append failed");
      break;
    }
    benchmark::DoNotOptimize(r->message);
  }
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_WalAppendInMemory(benchmark::State& state) {
  std::unique_ptr<Engine> engine =
      MakeEngine("", storage::FsyncPolicy::kOff);
  RunAppendLoop(state, *engine);
}
BENCHMARK(BM_WalAppendInMemory);

void BM_WalAppendFsyncOff(benchmark::State& state) {
  std::unique_ptr<Engine> engine =
      MakeEngine(FreshDataDir("off"), storage::FsyncPolicy::kOff);
  RunAppendLoop(state, *engine);
}
BENCHMARK(BM_WalAppendFsyncOff);

void BM_WalAppendFsyncBatch(benchmark::State& state) {
  std::unique_ptr<Engine> engine =
      MakeEngine(FreshDataDir("batch"), storage::FsyncPolicy::kBatch);
  RunAppendLoop(state, *engine);
}
BENCHMARK(BM_WalAppendFsyncBatch);

void BM_WalAppendFsyncAlways(benchmark::State& state) {
  std::unique_ptr<Engine> engine =
      MakeEngine(FreshDataDir("always"), storage::FsyncPolicy::kAlways);
  RunAppendLoop(state, *engine);
}
BENCHMARK(BM_WalAppendFsyncAlways);

}  // namespace
}  // namespace caldb
