// Tracer: RAII spans recorded into a fixed-size ring buffer.
//
// A Span captures (name, start/end ns on the steady clock, parent span,
// key/value attributes).  Nesting is tracked per thread: a span started
// while another is open on the same thread records that span as its
// parent.  Finished spans overwrite the oldest entries once the ring is
// full, so tracing is cheap enough to leave on: the cost of an enabled
// span is two clock reads plus one short critical section at destruction;
// a disabled tracer costs one relaxed atomic load.
//
// Spans are scope-bound (LIFO per thread), which RAII usage guarantees.
//
// The span stack is thread-local and never crosses threads: a span is
// parented only to a span open on its own thread.  The engine runs a
// statement on its caller's thread, so it nests under whatever span the
// caller has open, and is a root when none is.

#ifndef CALDB_OBS_TRACE_H_
#define CALDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace caldb::obs {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint32_t tid = 0;        // small per-process thread id (CurrentThreadId)
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A small dense per-process thread id (1, 2, ...), stable for the
/// thread's lifetime.  Shared by spans, log lines and Chrome trace rows.
uint32_t CurrentThreadId();

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  static Tracer& Global();

  explicit Tracer(size_t capacity = kDefaultCapacity);

  /// A live span.  Move-only; records itself into the tracer's ring on
  /// destruction (or End()).  Inactive spans (disabled tracer) are no-ops.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    void AddAttr(std::string_view key, std::string value);
    bool active() const { return tracer_ != nullptr; }
    uint64_t id() const { return record_.id; }

    /// Finishes the span early (idempotent).
    void End();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    SpanRecord record_;
  };

  Span StartSpan(std::string_view name);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Finished spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;

  /// Renders the most recent `limit` finished spans as an indented tree
  /// fragment: "name  123.4us  key=value ...".
  std::string ToString(size_t limit = 64) const;

  /// Renders the ring as Chrome/Perfetto trace-event JSON (one complete
  /// "X" event per finished span; span id/parent and attrs in args), in
  /// the format chrome://tracing and https://ui.perfetto.dev load
  /// directly.  The shell's `\trace save <path>` writes this to a file.
  std::string ExportChromeTrace() const;

  void Clear();

  size_t capacity() const { return capacity_; }
  /// Total spans finished since construction/Clear (>= ring occupancy).
  int64_t total_finished() const {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  void Finish(SpanRecord record);

  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> total_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // ring_[(start_ + i) % capacity_]
  size_t start_ = 0;
};

/// Nanoseconds on the monotonic clock (the time base of all spans and
/// latency histograms).
int64_t NowNs();

}  // namespace caldb::obs

#endif  // CALDB_OBS_TRACE_H_
