#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "obs/json.h"

namespace caldb::obs {

namespace {

// Open-span stack of the current thread (ids), for parent attribution.
thread_local std::vector<uint64_t> t_span_stack;

std::string FormatUs(int64_t ns) {
  // "123.4us" with one decimal.
  int64_t tenths = ns / 100;
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
         "us";
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Tracer::Span::AddAttr(std::string_view key, std::string value) {
  if (tracer_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), std::move(value));
}

void Tracer::Span::End() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  if (!t_span_stack.empty() && t_span_stack.back() == record_.id) {
    t_span_stack.pop_back();
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->Finish(std::move(record_));
}

Tracer::Span Tracer::StartSpan(std::string_view name) {
  Span span;
  if (!enabled()) return span;
  span.tracer_ = this;
  span.record_.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.record_.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  span.record_.tid = CurrentThreadId();
  span.record_.name = std::string(name);
  span.record_.start_ns = NowNs();
  t_span_stack.push_back(span.record_.id);
  return span;
}

void Tracer::Finish(SpanRecord record) {
  total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[start_] = std::move(record);
    start_ = (start_ + 1) % capacity_;
  }
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

std::string Tracer::ToString(size_t limit) const {
  std::vector<SpanRecord> spans = Snapshot();
  if (spans.size() > limit) {
    spans.erase(spans.begin(),
                spans.begin() + static_cast<ptrdiff_t>(spans.size() - limit));
  }
  // The ring is ordered by finish time (children before parents); render
  // in start order so parents precede their children.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  // Indent children under parents still present in the window.
  std::map<uint64_t, int> depth;
  std::string out;
  for (const SpanRecord& s : spans) {
    int d = 0;
    auto parent = depth.find(s.parent_id);
    if (parent != depth.end()) d = parent->second + 1;
    depth[s.id] = d;
    out += std::string(static_cast<size_t>(d) * 2, ' ') + s.name + "  " +
           FormatUs(s.duration_ns());
    for (const auto& [key, value] : s.attrs) {
      out += "  " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

std::string Tracer::ExportChromeTrace() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, s.name);
    out += ",\"cat\":\"caldb\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.tid);
    out += ",\"ts\":";
    AppendJsonMicros(&out, s.start_ns);
    out += ",\"dur\":";
    AppendJsonMicros(&out, s.duration_ns());
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent_id);
    for (const auto& [key, value] : s.attrs) {
      out += ',';
      AppendJsonKey(&out, key);
      AppendJsonString(&out, value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  start_ = 0;
  total_.store(0, std::memory_order_relaxed);
}

}  // namespace caldb::obs
