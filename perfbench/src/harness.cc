#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

Zipf::Zipf(int64_t n, double s, uint64_t seed) : cdf_(n), perm_(n) {
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(perm_.begin(), perm_.end(), 0);
  Rng rng(seed);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[rng.Below(i + 1)]);
  }
}

int64_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Unit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return perm_[it - cdf_.begin()];
}

CpuTimes CpuTimes::Now() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate line: user nice system idle iowait irq
                // softirq steal ...
  CpuTimes times;
  int64_t value = 0;
  for (int field = 0; cpu == "cpu" && field < 8 && stat >> value; ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double CpuTimes::StealShare() const {
  return Ratio(static_cast<double>(steal), static_cast<double>(total));
}

void Latencies::Append(const Latencies& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double Latencies::SumSeconds() const {
  double sum = 0;
  for (int64_t ns : ns_) sum += static_cast<double>(ns);
  return sum / 1e9;
}

double Latencies::PercentileUs(double p) const {
  if (ns_.empty()) return 0;
  std::vector<int64_t> sorted = ns_;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

RegistrySnapshot RegistrySnapshot::Take() {
  caldb::obs::MetricRegistry& reg = caldb::obs::MetricRegistry::Global();
  RegistrySnapshot snap;
  for (const std::string& name : reg.CounterNames()) {
    snap.counters[name] = reg.counter(name)->value();
  }
  for (const std::string& name : reg.HistogramNames()) {
    const caldb::obs::Histogram* h = reg.histogram(name);
    snap.histograms[name] = {h->count(), h->sum()};
  }
  return snap;
}

namespace {
template <typename Map>
auto Lookup(const Map& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? typename Map::mapped_type{} : it->second;
}
}  // namespace

void RegistryDelta::Add(const RegistrySnapshot& before,
                        const RegistrySnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    diff_.counters[name] += value - Lookup(before.counters, name);
  }
  for (const auto& [name, value] : after.histograms) {
    const std::pair<int64_t, int64_t> was = Lookup(before.histograms, name);
    std::pair<int64_t, int64_t>& d = diff_.histograms[name];
    d.first += value.first - was.first;
    d.second += value.second - was.second;
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  return Lookup(diff_.counters, name);
}

int64_t RegistryDelta::HistCount(const std::string& name) const {
  return Lookup(diff_.histograms, name).first;
}

int64_t RegistryDelta::HistSum(const std::string& name) const {
  return Lookup(diff_.histograms, name).second;
}

double RegistryDelta::HistMean(const std::string& name) const {
  return Ratio(static_cast<double>(HistSum(name)),
               static_cast<double>(HistCount(name)));
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kPhase: return "perfbench.phase";
    case SpanName::kEngineCreate: return "Engine::Create";
    case SpanName::kSessionExecute: return "Session::Execute";
    case SpanName::kSessionPrepare: return "Session::Prepare";
    case SpanName::kPreparedExecute: return "PreparedStatement::Execute";
    case SpanName::kEvalCalendar: return "Session::EvalCalendar";
    case SpanName::kAdvanceTo: return "Engine::AdvanceTo";
    case SpanName::kCompileStatement: return "CompileStatement";
    case SpanName::kCount: break;
  }
  return "?";
}

const char* SpanKey(SpanName name) {
  switch (name) {
    case SpanName::kPhase: return "phase";
    case SpanName::kEngineCreate: return "engine_create";
    case SpanName::kSessionExecute: return "session_execute";
    case SpanName::kSessionPrepare: return "session_prepare";
    case SpanName::kPreparedExecute: return "prepared_execute";
    case SpanName::kEvalCalendar: return "eval_calendar";
    case SpanName::kAdvanceTo: return "advance_to";
    case SpanName::kCompileStatement: return "compile_statement";
    case SpanName::kCount: break;
  }
  return "unknown";
}

int64_t SpanRecorder::Sink::Begin(SpanName name, int64_t op) {
  const int64_t id = owner_->next_id_.fetch_add(1, std::memory_order_relaxed);
  const int64_t parent = stack_.empty() ? root_ : stack_.back().id;
  if (op == 0 && !stack_.empty()) op = stack_.back().op;
  stack_.push_back(Open{name, id, parent, op, NowNs()});
  return id;
}

void SpanRecorder::Sink::End(int64_t id) {
  const int64_t end = NowNs();
  // Scopes nest, so the span to close is always the innermost one.
  if (stack_.empty() || stack_.back().id != id) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const int slot = static_cast<int>(open.name);
  ++count_[slot];
  total_ns_[slot] += end - open.start_ns;
  if (kept_.size() < kKeptPerSink) {
    kept_.push_back(
        Span{open.name, open.id, open.parent, open.op, open.start_ns, end});
  }
}

SpanRecorder::Sink* SpanRecorder::NewSink(int64_t root) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::make_unique<Sink>(
      this, static_cast<int>(sinks_.size()), root));
  return sinks_.back().get();
}

int64_t SpanRecorder::Count(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& sink : sinks_) n += sink->count_[static_cast<int>(name)];
  return n;
}

double SpanRecorder::TotalUs(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t ns = 0;
  for (const auto& sink : sinks_) ns += sink->total_ns_[static_cast<int>(name)];
  return static_cast<double>(ns) / 1e3;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->kept_) origin = std::min(origin, s.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[384];
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->kept_) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                    "\"parent\":%lld,\"op\":%lld}}",
                    first ? "" : ",", SpanNameString(s.name), sink->thread_,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.op));
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf, std::clamp<size_t>(n, 0, sizeof(buf) - 1));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
