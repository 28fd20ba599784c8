// Crash-burst helper for wal_fault_test: opens a durable engine with
// fsync=always and appends statements as fast as it can, acknowledging
// each durably-committed id to a separately-fsync'd ack file.  The parent
// test SIGKILLs this process mid-burst; the contract under test is that
// every acknowledged id survives recovery.
//
// Usage: wal_burst_child <data_dir> <ack_file>
//
// Exit codes: 0 burst completed (the parent was too slow to kill us —
// still a valid run), 1 setup error.

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "engine/engine.h"

namespace {

// Statements the burst writes before giving up on being killed.
constexpr int kBurstStatements = 200000;

bool IgnorableCreateError(const caldb::Status& status) {
  // On a re-run the tables already exist (recovered from disk).
  return status.code() == caldb::StatusCode::kAlreadyExists;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: wal_burst_child <data_dir> <ack_file>\n");
    return 1;
  }
  const std::string data_dir = argv[1];
  const std::string ack_path = argv[2];

  caldb::EngineOptions opts;
  opts.epoch = caldb::CivilDate{1993, 1, 1};
  opts.data_dir = data_dir;
  // Durable-before-acknowledge: an id reaches the ack file only after its
  // statement's WAL frame is fsync'd.
  opts.fsync_policy = caldb::storage::FsyncPolicy::kAlways;
  auto engine = caldb::Engine::Create(opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  for (const char* stmt : {"create table BURST (n int)",
                           "create table FIRES (day int)"}) {
    caldb::Result<caldb::QueryResult> r = (*engine)->Execute(stmt);
    if (!r.ok() && !IgnorableCreateError(r.status())) {
      std::fprintf(stderr, "create: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  // One weekly rule so the kill also interrupts rule firings: recovery
  // must end with exactly one FIRES row per Tuesday passed.
  caldb::TemporalAction action;
  action.command = "append FIRES (day = fire_day())";
  caldb::Result<int64_t> declared =
      (*engine)->DeclareRule("tuesday", "[2]/DAYS:during:WEEKS", action);
  if (!declared.ok() &&
      declared.status().code() != caldb::StatusCode::kAlreadyExists) {
    std::fprintf(stderr, "declare: %s\n", declared.status().ToString().c_str());
    return 1;
  }

  int ack_fd = ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) {
    std::perror("open ack");
    return 1;
  }

  // Resume numbering past any earlier run, so ids stay unique across
  // kill/restart cycles.
  int64_t start = 0;
  {
    caldb::Result<caldb::QueryResult> r =
        (*engine)->Execute("retrieve (b.n) from b in BURST");
    if (r.ok()) {
      for (const caldb::Row& row : r->rows) {
        auto n = row[0].AsInt();
        if (n.ok() && *n >= start) start = *n + 1;
      }
    }
  }

  for (int64_t i = start; i < start + kBurstStatements; ++i) {
    caldb::Result<caldb::QueryResult> r = (*engine)->Execute(
        "append BURST (n = " + std::to_string(i) + ")");
    if (!r.ok()) {
      std::fprintf(stderr, "append %lld: %s\n", static_cast<long long>(i),
                   r.status().ToString().c_str());
      return 1;
    }
    std::string line = std::to_string(i) + "\n";
    if (::write(ack_fd, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size()) ||
        ::fsync(ack_fd) != 0) {
      std::perror("ack");
      return 1;
    }
    // Roll the virtual clock forward every few statements so rule
    // firings interleave with the burst.
    if (i % 16 == 15) {
      caldb::Status st = (*engine)->AdvanceTo((*engine)->Now() + 1);
      if (!st.ok()) {
        std::fprintf(stderr, "advance: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  ::close(ack_fd);
  return 0;
}
