#include "workload.h"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

void ClientStats::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(what);
}

void RunClients(int clients, SpanRecorder* spans, PhaseResult* result,
                const std::function<void(int, ClientStats&,
                                         SpanRecorder::Sink*)>& body) {
  SpanRecorder::Sink* main_sink = spans != nullptr ? spans->NewSink(0) : nullptr;
  const int64_t phase = main_sink != nullptr
                            ? main_sink->Begin(SpanName::kPhase, 0)
                            : 0;
  std::vector<ClientStats> stats(clients);
  std::vector<SpanRecorder::Sink*> sinks(clients, nullptr);
  for (int c = 0; c < clients && spans != nullptr; ++c) {
    sinks[c] = spans->NewSink(phase);
  }

  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      body(c, stats[c], sinks[c]);
    });
  }
  const RegistrySnapshot registry_before = RegistrySnapshot::Take();
  const CpuTimes cpu_before = CpuTimes::Now();
  int64_t start_ns;
  {
    std::lock_guard<std::mutex> lock(mu);
    start_ns = NowNs();
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  result->measured_ns += NowNs() - start_ns;
  const CpuTimes cpu_after = CpuTimes::Now();
  result->cpu.steal += cpu_after.steal - cpu_before.steal;
  result->cpu.total += cpu_after.total - cpu_before.total;
  result->delta.Add(registry_before, RegistrySnapshot::Take());
  if (main_sink != nullptr) main_sink->End(phase);

  ClientStats& total = result->total;
  for (const ClientStats& s : stats) {
    total.read.Append(s.read);
    total.write.Append(s.write);
    total.cal.Append(s.cal);
    total.advance.Append(s.advance);
    total.ops += s.ops;
    total.failed += s.failed;
    total.rows_returned += s.rows_returned;
    total.writes_acked += s.writes_acked;
    for (const std::string& f : s.failures) {
      if (total.failures.size() < 10) total.failures.push_back(f);
    }
  }
}

caldb::Status Exec(caldb::Session& session, const std::string& text,
                   SpanRecorder::Sink* sink) {
  SpanScope span(sink, SpanName::kSessionExecute);
  caldb::Result<caldb::QueryResult> r = session.Execute(text);
  if (!r.ok()) {
    return caldb::Status::Internal("set-up statement failed: " + text + ": " +
                                   r.status().ToString());
  }
  return caldb::Status::OK();
}

}  // namespace perfbench
