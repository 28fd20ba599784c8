// Measurement plumbing shared by the perfbench workloads: seeded input
// generation, latency samples with exact percentiles, before/after deltas
// of the caldb.* metric registry, benchmark-side spans, and process
// memory.  Nothing here instruments the library: every number is taken
// from outside, around calls into its public functions, or read from the
// registry the library already maintains.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, fast and fully determined by its seed, so the same
/// --seed always generates the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1, mapped through a seeded permutation so the
/// hot keys are scattered over the key space (and over client ownership).
class Zipf {
 public:
  Zipf(int64_t n, double s, uint64_t seed);
  int64_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> perm_;
};

/// The host's CPU time counters from /proc/stat.  The steal column is the
/// time the hypervisor gave this VM's vCPUs to someone else; a vCPU it
/// deschedules stalls whatever thread runs on it, including a lock
/// holder, so a phase with steal reads slow.
struct CpuTimes {
  int64_t steal = 0;
  int64_t total = 0;

  static CpuTimes Now();
  /// steal / total; 0 when unknown.
  double StealShare() const;
};

/// Per-operation latencies of one op class, in ns.  A failed operation is
/// recorded as kFailedNs so it counts against every latency percentile.
class Latencies {
 public:
  static constexpr int64_t kFailedNs = int64_t{1} << 40;

  void Add(int64_t ns) { ns_.push_back(ns); }
  void Append(const Latencies& other);
  size_t count() const { return ns_.size(); }
  /// Sum of all latencies in seconds.
  double SumSeconds() const;
  /// The nearest-rank p-th percentile of every sample, in microseconds.
  double PercentileUs(double p) const;

 private:
  std::vector<int64_t> ns_;
};

/// Median of a small sample (copies).
double Median(std::vector<double> v);

/// Values of every caldb.* counter and histogram at one moment.
struct RegistrySnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, std::pair<int64_t, int64_t>> histograms;  // count, sum

  static RegistrySnapshot Take();
};

/// Per-instrument change of the registry, summed over the intervals added.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after) {
    Add(before, after);
  }
  /// Adds after − before.
  void Add(const RegistrySnapshot& before, const RegistrySnapshot& after);
  int64_t Counter(const std::string& name) const;
  int64_t HistCount(const std::string& name) const;
  int64_t HistSum(const std::string& name) const;
  /// Mean of the histogram's new samples (its sum/count delta), or 0.
  double HistMean(const std::string& name) const;

 private:
  RegistrySnapshot diff_;
};

/// a / b, or 0 when b is 0 (a ratio whose base is empty reads 0; the base
/// is reported next to it).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// The public calls the traced run wraps in spans.
enum class SpanName {
  kPhase,
  kEngineCreate,
  kSessionExecute,
  kSessionPrepare,
  kPreparedExecute,
  kEvalCalendar,
  kAdvanceTo,
  kCompileStatement,
  kCount
};
/// The public function's name, e.g. "Engine::AdvanceTo".
const char* SpanNameString(SpanName name);
/// A metric-name-safe key, e.g. "advance_to".
const char* SpanKey(SpanName name);

/// Benchmark-side spans, one sink per client thread.  Spans are kept in
/// memory (the first kKeptPerSink per sink; later ones are only counted)
/// and written as Chrome trace-event JSON when the run ends.
class SpanRecorder {
 public:
  static constexpr size_t kKeptPerSink = 5000;

  struct Span {
    SpanName name;
    int64_t id;
    int64_t parent;  // 0 = none
    int64_t op;      // the client operation it belongs to (0 = none)
    int64_t start_ns;
    int64_t end_ns;
  };

  class Sink {
   public:
    Sink(SpanRecorder* owner, int thread, int64_t root)
        : owner_(owner), thread_(thread), root_(root) {}
    /// Opens a span; returns its id (0 when this sink is null).
    int64_t Begin(SpanName name, int64_t op);
    void End(int64_t id);

   private:
    friend class SpanRecorder;
    struct Open {
      SpanName name;
      int64_t id;
      int64_t parent;
      int64_t op;
      int64_t start_ns;
    };
    SpanRecorder* owner_;
    int thread_;
    int64_t root_;
    std::vector<Open> stack_;
    std::vector<Span> kept_;
    int64_t count_[static_cast<int>(SpanName::kCount)] = {};
    int64_t total_ns_[static_cast<int>(SpanName::kCount)] = {};
  };

  /// A new sink for one thread, owned by the recorder.  `root` (a span id,
  /// or 0) is the parent of the sink's outermost spans.
  Sink* NewSink(int64_t root);
  /// Spans of `name` recorded so far, and their summed duration.
  int64_t Count(SpanName name) const;
  double TotalUs(SpanName name) const;
  /// Writes every kept span; returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class Sink;

  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;  // guards sinks_
  std::vector<std::unique_ptr<Sink>> sinks_;
};

/// RAII span on a possibly-null sink: no clock reads when tracing is off.
class SpanScope {
 public:
  SpanScope(SpanRecorder::Sink* sink, SpanName name, int64_t op = 0)
      : sink_(sink), id_(sink != nullptr ? sink->Begin(name, op) : 0) {}
  ~SpanScope() {
    if (sink_ != nullptr) sink_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder::Sink* sink_;
  int64_t id_;
};

/// Process high-water resident set size, MiB (VmHWM).
double PeakRssMb();

/// The CPU model string, or "unknown".
std::string CpuModel();

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes a string for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
