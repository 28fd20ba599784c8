// perfbench: the end-to-end caldb benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>] [--git-sha <sha>]
//
// --trace 0 measures with observability off and reports the end-to-end
// metrics.  --trace 1 measures half the time untraced and half traced
// (obs on, benchmark-side spans around every public call) and reports the
// per-layer metrics, derived from registry deltas over the traced phase.
// The second-to-last stdout line is `PERFBENCH {...}`: every metric that
// applies to the workload plus the environment stamp.  The last line is
// the result object: {"correct","attempted","failed","metrics"}.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  Config cfg;
  int trace = 0;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <adhoc_mixed|"
               "prepared_durable|calendar_sessions|rule_firing> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>] "
               "[--git-sha <sha>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.cfg.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.cfg.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.cfg.work_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (args.cfg.smoke) args.cfg.seconds = std::min(args.cfg.seconds, 0.4);
  return args;
}

std::unique_ptr<Workload> Make(const Config& cfg) {
  if (cfg.workload == "adhoc_mixed") return MakeAdhocMixed(cfg);
  if (cfg.workload == "prepared_durable") return MakePreparedDurable(cfg);
  if (cfg.workload == "calendar_sessions") return MakeCalendarSessions(cfg);
  if (cfg.workload == "rule_firing") return MakeRuleFiring(cfg);
  Usage("unknown workload " + cfg.workload);
}

[[noreturn]] void Die(const std::string& what, const caldb::Status& st) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

// Workload::Setup, returning its seconds.
double SetUp(Workload& w, SpanRecorder::Sink* sink) {
  const int64_t t0 = NowNs();
  const caldb::Status st = w.Setup(sink);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (!st.ok()) Die("setup", st);
  return seconds;
}

void PrintFailures(const PhaseResult& r) {
  for (const std::string& f : r.total.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
}

void Prepare(Workload& w) {
  const caldb::Status st = w.Prepare();
  if (!st.ok()) Die("prepare", st);
}

// Runs rounds of `w` until `seconds` of measured phase time is spent (at
// least one).  The first set-up records its spans on `setup_sink`.
PhaseResult MeasureRounds(Workload& w, double seconds, SpanRecorder* spans,
                          SpanRecorder::Sink* setup_sink) {
  PhaseResult r;
  r.setup_s.push_back(SetUp(w, setup_sink));
  Prepare(w);
  while (true) {
    w.Round(spans, &r);
    ++r.rounds;
    if (static_cast<double>(r.measured_ns) >= seconds * 1e9) break;
    w.Reset();
    r.setup_s.push_back(SetUp(w, nullptr));
  }
  w.Finish(&r);
  PrintFailures(r);
  return r;
}

const Latencies& ClassOf(const ClientStats& s, const std::string& name) {
  if (name == "read") return s.read;
  if (name == "write") return s.write;
  if (name == "cal") return s.cal;
  return s.advance;
}

std::string Stamp(const Args& args, int clients) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%u,\"cpu_model\":\"%s\",\"build_type\":\"%s\","
      "\"sanitizer\":\"%s\",\"obs_enabled\":%s,\"git_sha\":\"%s\","
      "\"seed\":%llu,\"clients\":%d,\"seconds\":%.3f,\"smoke\":%s}",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZER,
      caldb::obs::Enabled() ? "true" : "false",
      JsonEscape(args.git_sha).c_str(),
      static_cast<unsigned long long>(args.cfg.seed), clients,
      args.cfg.seconds, args.cfg.smoke ? "true" : "false");
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

// The workload's primary operations: the classes op_p50_us, op_p99_us and
// ops_per_s are taken over.
Latencies Primary(const Workload& w, const ClientStats& s) {
  Latencies primary;
  for (const std::string& c : w.PrimaryClasses()) primary.Append(ClassOf(s, c));
  return primary;
}

// Primary operations completed per second of the measured phase.
double OpsPerSecond(const Workload& w, const PhaseResult& r) {
  return Ratio(static_cast<double>(Primary(w, r.total).count()),
               static_cast<double>(r.measured_ns) / 1e9);
}

// The end-to-end metrics every workload reports (BENCHMARK.json's
// end_to_end list), then the per-class ones that apply to this workload.
void EndToEnd(const Workload& w, const Config& cfg, const PhaseResult& r,
              double peak_rss_mb, std::vector<Metric>* headline,
              std::vector<Metric>* detail) {
  const RegistryDelta& delta = r.delta;
  const Latencies primary = Primary(w, r.total);
  // setup_s: the median of the rounds' set-ups, which are spread over the
  // whole run as the measured phase is.
  *headline = {
      {"setup_s", Median(r.setup_s), "s"},
      {"ops_per_s", OpsPerSecond(w, r), "1/s"},
      {"op_p50_us", primary.PercentileUs(50), "us"},
      {"op_p99_us", primary.PercentileUs(99), "us"},
  };
  *detail = *headline;
  detail->push_back({"rounds", static_cast<double>(r.rounds), "count"});
  detail->push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  for (const std::string& c : w.Classes()) {
    const Latencies& lat = ClassOf(r.total, c);
    detail->push_back({c + "_p50_us", lat.PercentileUs(50), "us"});
    detail->push_back({c + "_p99_us", lat.PercentileUs(99), "us"});
    detail->push_back({c + "_samples", static_cast<double>(lat.count()),
                       "count"});
  }
  if (cfg.workload == "rule_firing") {
    detail->push_back({"fires_per_s",
                       Ratio(static_cast<double>(r.fires),
                             r.total.advance.SumSeconds()),
                       "1/s"});
    detail->push_back({"days_advanced", static_cast<double>(r.advances),
                       "count"});
  }
  if (cfg.workload == "prepared_durable") {
    detail->push_back({"wal_bytes_per_write",
                       Ratio(static_cast<double>(delta.Counter("caldb.wal.bytes")),
                             static_cast<double>(r.total.writes_acked)),
                       "B"});
    detail->push_back({"recovery_s", r.recovery_s, "s"});
    detail->push_back({"checkpoints",
                       static_cast<double>(
                           delta.Counter("caldb.storage.checkpoints")),
                       "count"});
  }
  detail->push_back({"error_rate",
                     Ratio(static_cast<double>(r.total.failed),
                           static_cast<double>(r.total.ops)),
                     "ratio"});
  detail->push_back({"host_steal_share", r.cpu.StealShare(), "ratio"});
}

// BENCHMARK.json's per_layer list, from the traced phase's registry delta.
std::vector<Metric> PerLayer(const PhaseResult& r, double compile_us,
                             double trace_overhead) {
  const RegistryDelta& d = r.delta;
  const double ops = static_cast<double>(r.total.ops);
  const double stmts = static_cast<double>(d.Counter("caldb.engine.statements"));
  const double evals = static_cast<double>(d.HistCount("caldb.eval.run_ns"));
  const double writes = static_cast<double>(r.total.writes_acked);
  const double advances = static_cast<double>(r.advances);
  const auto c = [&d](const char* name) {
    return static_cast<double>(d.Counter(name));
  };
  const double gen_hits =
      c("caldb.eval.gen_cache.hits") + c("caldb.eval.gen_cache.covered_hits");
  const double cat_hits = c("caldb.catalog.eval_cache.hits");
  const double cat_misses = c("caldb.catalog.eval_cache.misses");
  return {
      // engine
      {"engine.stmt_cache.hit_ratio",
       Ratio(stmts - c("caldb.stmt_cache.misses"), stmts), "ratio"},
      {"engine.stmt_cache.evictions_per_op",
       Ratio(c("caldb.stmt_cache.evictions"), ops), "count"},
      {"engine.lock_wait_us.read",
       d.HistMean("caldb.engine.lock_wait_ns.read") / 1e3, "us"},
      {"engine.lock_wait_us.write",
       d.HistMean("caldb.engine.lock_wait_ns.write") / 1e3, "us"},
      {"engine.table_lock_wait_us",
       d.HistMean("caldb.engine.table_locks.wait_ns") / 1e3, "us"},
      {"engine.lock_fallback_ratio",
       Ratio(c("caldb.engine.table_locks.fallbacks"),
             c("caldb.engine.table_locks.acquired") +
                 c("caldb.engine.table_locks.fallbacks")),
       "ratio"},
      // db
      {"db.parses_per_op", Ratio(c("caldb.db.parses"), ops), "count"},
      {"db.compile_us", compile_us, "us"},
      {"db.rows_scanned_per_row_returned",
       Ratio(c("caldb.db.rows_scanned"),
             static_cast<double>(r.total.rows_returned)),
       "ratio"},
      {"db.index_scan_ratio",
       Ratio(c("caldb.db.index_scans"),
             c("caldb.db.index_scans") + c("caldb.db.full_scans")),
       "ratio"},
      {"db.btree.node_reads_per_index_scan",
       Ratio(c("caldb.btree.node_reads"), c("caldb.db.index_scans")), "count"},
      {"db.statement_coverage",
       Ratio(static_cast<double>(d.HistCount("caldb.db.statement_ns")), stmts),
       "ratio"},
      // lang
      {"lang.eval_us_per_call", d.HistMean("caldb.eval.run_ns") / 1e3, "us"},
      {"lang.gen_cache.hit_ratio",
       Ratio(gen_hits, gen_hits + c("caldb.eval.gen_cache.misses")), "ratio"},
      {"lang.intervals_generated_per_eval",
       Ratio(c("caldb.eval.intervals_generated"), evals), "count"},
      {"lang.eval_calls_per_fire", Ratio(evals, c("caldb.cron.fires")),
       "count"},
      // catalog
      {"catalog.eval_us", d.HistMean("caldb.catalog.eval_ns") / 1e3, "us"},
      {"catalog.eval_cache.hit_ratio",
       Ratio(cat_hits, cat_hits + cat_misses), "ratio"},
      {"catalog.eval_cache.misses", cat_misses, "count"},
      // core
      {"core.sweep.comparisons_per_eval",
       Ratio(c("caldb.sweep.comparisons"), evals), "count"},
      {"core.cal.rep_copies_per_eval", Ratio(c("caldb.cal.rep_copies"), evals),
       "count"},
      // rules
      {"rules.probe_us_per_advance",
       Ratio(static_cast<double>(d.HistSum("caldb.cron.probe_ns")) / 1e3,
             advances),
       "us"},
      {"rules.fires_per_advance", Ratio(c("caldb.cron.fires"), advances),
       "count"},
      {"rules.heap_depth_max", static_cast<double>(r.heap_depth_max), "count"},
      // storage
      {"storage.wal.append_us_per_write",
       Ratio(static_cast<double>(d.HistSum("caldb.wal.append_ns")) / 1e3,
             writes),
       "us"},
      {"storage.wal.syncs_per_write", Ratio(c("caldb.wal.syncs"), writes),
       "count"},
      {"storage.checkpoints", c("caldb.storage.checkpoints"), "count"},
      {"storage.checkpoint_ms",
       d.HistMean("caldb.storage.checkpoint_ns") / 1e6, "ms"},
      {"storage.recovery.replayed_records",
       static_cast<double>(std::max<int64_t>(r.recovery_replayed, 0)),
       "count"},
      // obs
      {"obs.trace_overhead", trace_overhead, "ratio"},
  };
}

// Times CompileStatement over the phase's own statement texts.
double CompileUs(const std::vector<std::string>& texts,
                 SpanRecorder::Sink* sink) {
  if (texts.empty()) return 0;
  int64_t total = 0;
  for (const std::string& text : texts) {
    const int64_t t0 = NowNs();
    {
      SpanScope span(sink, SpanName::kCompileStatement);
      caldb::Result<caldb::CompiledStatementPtr> compiled =
          caldb::CompileStatement(text);
      if (!compiled.ok()) Die("CompileStatement(" + text + ")", compiled.status());
    }
    total += NowNs() - t0;
  }
  return static_cast<double>(total) / static_cast<double>(texts.size()) / 1e3;
}

int Run(const Args& args) {
  const Config& cfg = args.cfg;
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 cfg.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  caldb::obs::SetEnabled(false);

  std::vector<Metric> reported;  // the result line's metrics
  std::vector<Metric> detail;    // the PERFBENCH line's metrics
  int64_t attempted = 0, failed = 0, checks = 0;
  int clients = 0;
  std::string stamp;

  if (args.trace == 0) {
    std::unique_ptr<Workload> w = Make(cfg);
    clients = w->Clients();
    const PhaseResult r = MeasureRounds(*w, cfg.seconds, nullptr, nullptr);
    EndToEnd(*w, cfg, r, PeakRssMb(), &reported, &detail);
    attempted = r.total.ops;
    failed = r.total.failed;
    checks = r.checks;
    stamp = Stamp(args, clients);
  } else {
    // Untraced half: the ops_per_s baseline for obs.trace_overhead.
    const double half = cfg.seconds / 2;
    std::unique_ptr<Workload> plain_workload = Make(cfg);
    const PhaseResult plain =
        MeasureRounds(*plain_workload, half, nullptr, nullptr);
    const double plain_ops_per_s = OpsPerSecond(*plain_workload, plain);
    plain_workload.reset();

    // Traced half: obs on, spans around every public call.
    caldb::obs::SetEnabled(true);
    SpanRecorder spans;
    SpanRecorder::Sink* main_sink = spans.NewSink(0);
    std::unique_ptr<Workload> w = Make(cfg);
    clients = w->Clients();
    const PhaseResult traced = MeasureRounds(*w, half, &spans, main_sink);
    stamp = Stamp(args, clients);
    const double compile_us = CompileUs(traced.statement_sample, main_sink);
    caldb::obs::SetEnabled(false);
    const double overhead = 1.0 - OpsPerSecond(*w, traced) / plain_ops_per_s;
    w.reset();
    reported = PerLayer(traced, compile_us, overhead);
    detail = reported;
    detail.push_back({"ops", static_cast<double>(traced.total.ops), "count"});
    detail.push_back({"rounds", static_cast<double>(traced.rounds), "count"});
    detail.push_back({"engine.statements",
                      static_cast<double>(
                          traced.delta.Counter("caldb.engine.statements")),
                      "count"});
    detail.push_back({"lang.evals",
                      static_cast<double>(
                          traced.delta.HistCount("caldb.eval.run_ns")),
                      "count"});
    detail.push_back({"rules.fires", static_cast<double>(traced.fires),
                      "count"});
    detail.push_back({"storage.writes",
                      static_cast<double>(traced.total.writes_acked), "count"});
    detail.push_back({"host_steal_share", traced.cpu.StealShare(), "ratio"});
    for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
      const SpanName name = static_cast<SpanName>(i);
      const double n = static_cast<double>(spans.Count(name));
      if (name == SpanName::kPhase || n == 0) continue;
      const std::string key = std::string("span.") + SpanKey(name);
      detail.push_back({key + ".count", n, "count"});
      detail.push_back({key + ".mean_us", spans.TotalUs(name) / n, "us"});
    }
    // One file per workload, the latest traced run's.
    const std::string trace_path =
        cfg.work_dir + "/trace-" + cfg.workload + ".json";
    if (!spans.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    attempted = plain.total.ops + traced.total.ops;
    failed = plain.total.failed + traced.total.failed;
    checks = plain.checks + traced.checks;
  }

  std::printf("PERFBENCH {\"workload\":\"%s\",\"trace\":%d,\"stamp\":%s,"
              "\"attempted\":%lld,\"failed\":%lld,\"checks\":%lld,"
              "\"metrics\":%s}\n",
              cfg.workload.c_str(), args.trace, stamp.c_str(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed), static_cast<long long>(checks),
              MetricsJson(detail).c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
