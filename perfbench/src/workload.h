// The workload interface and the closed-loop client runner.
//
// A run builds one workload and measures it in rounds.  Each round sets
// up a fresh engine (timed: the setup_s samples), runs the same fixed
// operations on it with closed-loop clients (each client sends its next
// operation only after the reply to the previous one; the measured
// phase), then checks the engine's final state (untimed).  Rounds repeat
// until the phase time reaches the run's seconds, so a faster program
// runs more rounds of the same work, never different work, and the run's
// figures average over the whole run.  Every input a client sends is
// generated from the run's seed before the first round.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "caldb.h"
#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Tiny inputs and short phases, for the benchmark's own test.
  bool smoke = false;
  /// Closed-loop clients of adhoc_mixed, prepared_durable and
  /// calendar_sessions.  One: on a shared VM, three clients contending
  /// for the engine's locks measured how the host scheduled them, and ten
  /// runs of the same code spread by 30-40% (IQR over median).
  int clients = 1;
  /// Scratch directory inside the checkout (data dirs, traces).
  std::string work_dir;
};

/// What one client observed during the measured phase.
struct ClientStats {
  Latencies read, write, cal, advance;
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t rows_returned = 0;
  int64_t writes_acked = 0;
  std::vector<std::string> failures;  // the first few, for stderr

  /// Records a failed or wrong-result operation.
  void Fail(const std::string& what);
};

/// What one measured phase (plus its untimed final checks) produced.
struct PhaseResult {
  /// Wall time of the measured phase, from the clients' start until the
  /// last one returned, summed over the rounds.
  int64_t measured_ns = 0;
  int64_t rounds = 0;
  /// Each round's Workload::Setup, in seconds.
  std::vector<double> setup_s;
  /// The host's CPU time during the phase, and the part stolen from this VM.
  CpuTimes cpu;
  /// The caldb.* registry's change over the phase (not over set-up).
  RegistryDelta delta;
  ClientStats total;  // every client merged
  /// Untimed final-state checks made after the phase (their failures are
  /// in total.failed too).
  int64_t checks = 0;
  int64_t fires = 0;
  int64_t advances = 0;
  int64_t heap_depth_max = 0;
  /// Durable workload only: Engine::Create over the data directory the
  /// phase left behind (median of several), and what it replayed.
  double recovery_s = -1;
  int64_t recovery_replayed = 0;
  /// A sample of the database statement texts the phase ran, for timing
  /// CompileStatement in the traced run.
  std::vector<std::string> statement_sample;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Engine creation, data load, calendar and rule definitions on a fresh
  /// engine: the part setup_s times.  Runs before every round.
  virtual caldb::Status Setup(SpanRecorder::Sink* sink) = 0;
  /// Untimed, once, after the first Setup: client inputs, correctness
  /// oracles.
  virtual caldb::Status Prepare() = 0;
  /// One round on the engine Setup built: the clients run the round's
  /// fixed operations (measured through RunClients), then the final state
  /// is checked.
  virtual void Round(SpanRecorder* spans, PhaseResult* result) = 0;
  /// Untimed, between rounds: drops the last round's engine, so neither
  /// its teardown nor its memory lands in the next Setup.
  virtual void Reset() = 0;
  /// Untimed, once, after the last round (the durable workload times
  /// recovery here).
  virtual void Finish(PhaseResult*) {}

  /// The op classes the workload times: "read", "write", "cal", "advance".
  virtual std::vector<std::string> Classes() const = 0;
  /// The classes op_p50_us / op_p99_us are taken over (merged).
  virtual std::vector<std::string> PrimaryClasses() const = 0;
  /// Clients the measured phase runs.
  virtual int Clients() const = 0;
};

std::unique_ptr<Workload> MakeAdhocMixed(const Config& cfg);
std::unique_ptr<Workload> MakePreparedDurable(const Config& cfg);
std::unique_ptr<Workload> MakeCalendarSessions(const Config& cfg);
std::unique_ptr<Workload> MakeRuleFiring(const Config& cfg);

/// Starts `clients` threads together, gives each its own span sink (null
/// when `spans` is null), joins them, and adds their stats, the round's
/// wall time and its registry delta to `result`.  `body(client, stats,
/// sink)` runs one client's closed loop over its ops of the round.
void RunClients(int clients, SpanRecorder* spans, PhaseResult* result,
                const std::function<void(int, ClientStats&,
                                         SpanRecorder::Sink*)>& body);

/// Session::Execute inside a span, for set-up statements.
caldb::Status Exec(caldb::Session& session, const std::string& text,
                   SpanRecorder::Sink* sink);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
