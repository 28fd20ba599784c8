// Fault injection for the durability subsystem: a child process writing a
// statement burst (fsync=always, ack-after-durable) is SIGKILLed
// mid-burst; recovery must surface every acknowledged statement, truncate
// a torn WAL tail, replay idempotently, and fire each missed temporal
// rule exactly once.  tools/check.sh runs this under ASan.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "storage/wal.h"

namespace caldb {
namespace {

// The burst-child binary is built next to this test binary.
std::string ChildBinaryPath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path() / "wal_burst_child";
}

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<int64_t> ReadAckedIds(const std::string& path) {
  std::vector<int64_t> ids;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ids.push_back(std::stoll(line));
  }
  return ids;
}

// Spawns the burst child, waits for it to durably ack at least
// `min_acks` statements, SIGKILLs it, and reaps it.  Returns false if the
// child exited early (setup failure) or never produced acks.
bool RunBurstAndKill(const std::string& child, const std::string& data_dir,
                     const std::string& ack_path, size_t min_acks) {
  pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execl(child.c_str(), child.c_str(), data_dir.c_str(), ack_path.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  // Poll the ack file until the burst is well underway.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      // The child finished (or died) before we killed it; a completed
      // burst is still recoverable, but setup errors are not.
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (ReadAckedIds(ack_path).size() >= min_acks) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return !ReadAckedIds(ack_path).empty();
}

EngineOptions RecoveryOptions(const std::string& data_dir) {
  EngineOptions opts;
  opts.epoch = CivilDate{1993, 1, 1};
  opts.data_dir = data_dir;
  opts.fsync_policy = storage::FsyncPolicy::kOff;
  opts.checkpoint_on_stop = false;  // keep the WAL for double-replay checks
  return opts;
}

std::set<int64_t> SurvivingBurstIds(Engine& engine) {
  Result<QueryResult> rows = engine.Execute("retrieve (b.n) from b in BURST");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::set<int64_t> ids;
  if (rows.ok()) {
    for (const Row& row : rows->rows) ids.insert(row[0].AsInt().value());
  }
  return ids;
}

std::vector<int64_t> FireDays(Engine& engine) {
  Result<QueryResult> rows = engine.Execute("retrieve (f.day) from f in FIRES");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<int64_t> days;
  if (rows.ok()) {
    for (const Row& row : rows->rows) days.push_back(row[0].AsInt().value());
  }
  return days;
}

TEST(WalFault, KilledMidBurstLosesNoAcknowledgedStatement) {
  std::string child = ChildBinaryPath();
  ASSERT_TRUE(std::filesystem::exists(child)) << child;
  std::string data_dir = FreshDir("caldb_fault_burst");
  std::string ack_path = data_dir + "_acks";
  std::remove(ack_path.c_str());

  ASSERT_TRUE(RunBurstAndKill(child, data_dir, ack_path, /*min_acks=*/200));
  std::vector<int64_t> acked = ReadAckedIds(ack_path);
  ASSERT_GE(acked.size(), 1u);

  // First recovery: every acknowledged id must be present (durable before
  // acknowledge).  Un-acked trailing statements may or may not have made
  // it — both are correct.
  int64_t clock_day = 0;
  std::vector<int64_t> fire_days;
  {
    auto engine = Engine::Create(RecoveryOptions(data_dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_GT((*engine)->recovery_stats().wal_records_replayed, 0);
    std::set<int64_t> survived = SurvivingBurstIds(**engine);
    for (int64_t id : acked) {
      EXPECT_TRUE(survived.count(id)) << "acked id " << id << " lost";
    }
    // Rule firings: exactly one FIRES row per Tuesday the clock passed.
    fire_days = FireDays(**engine);
    std::set<int64_t> unique_days(fire_days.begin(), fire_days.end());
    EXPECT_EQ(unique_days.size(), fire_days.size())
        << "a rule fired twice for the same scheduled day";
    clock_day = (*engine)->Now();
    for (int64_t day : fire_days) EXPECT_LE(day, clock_day);
    ASSERT_TRUE((*engine)->Stop().ok());
  }

  // Second recovery from the same directory (checkpoint_on_stop was off,
  // so the same WAL replays again): byte-for-byte the same state —
  // replay is idempotent, missed firings do not double.
  {
    auto engine = Engine::Create(RecoveryOptions(data_dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::set<int64_t> survived = SurvivingBurstIds(**engine);
    for (int64_t id : acked) EXPECT_TRUE(survived.count(id));
    EXPECT_EQ(FireDays(**engine), fire_days);
    EXPECT_EQ((*engine)->Now(), clock_day);
  }
}

TEST(WalFault, GarbageTailIsTruncatedAndCommittedPrefixSurvives) {
  std::string child = ChildBinaryPath();
  ASSERT_TRUE(std::filesystem::exists(child)) << child;
  std::string data_dir = FreshDir("caldb_fault_torn");
  std::string ack_path = data_dir + "_acks";
  std::remove(ack_path.c_str());

  ASSERT_TRUE(RunBurstAndKill(child, data_dir, ack_path, /*min_acks=*/100));
  std::vector<int64_t> acked = ReadAckedIds(ack_path);
  ASSERT_GE(acked.size(), 1u);

  // Simulate a crash mid-frame-write: append half a frame of garbage.
  const std::string wal_path = data_dir + "/wal";
  const auto before = std::filesystem::file_size(wal_path);
  {
    std::ofstream wal(wal_path, std::ios::binary | std::ios::app);
    wal << "\x13\x37torn-frame-garbage";
  }

  {
    auto engine = Engine::Create(RecoveryOptions(data_dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE((*engine)->recovery_stats().torn_tail_truncated);
    std::set<int64_t> survived = SurvivingBurstIds(**engine);
    for (int64_t id : acked) {
      EXPECT_TRUE(survived.count(id)) << "acked id " << id << " lost";
    }
    ASSERT_TRUE((*engine)->Stop().ok());
  }
  // The tail was physically removed: the log is back to intact frames
  // only, and a re-read reports no tear.
  EXPECT_LE(std::filesystem::file_size(wal_path), before);
  Result<storage::WalReadResult> reread = storage::ReadWal(wal_path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread->torn_tail);

  {
    auto engine = Engine::Create(RecoveryOptions(data_dir));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_FALSE((*engine)->recovery_stats().torn_tail_truncated);
  }
}

TEST(WalFault, RepeatedKillRestartCyclesAccumulateState) {
  std::string child = ChildBinaryPath();
  ASSERT_TRUE(std::filesystem::exists(child)) << child;
  std::string data_dir = FreshDir("caldb_fault_cycles");
  std::string ack_path = data_dir + "_acks";
  std::remove(ack_path.c_str());

  // Three kill/restart cycles: the child itself recovers on each start
  // (its Engine::Create runs the same recovery path) and resumes
  // numbering after what survived.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(RunBurstAndKill(child, data_dir, ack_path, /*min_acks=*/60))
        << "cycle " << cycle;
  }
  std::vector<int64_t> acked = ReadAckedIds(ack_path);
  ASSERT_GE(acked.size(), 3u);

  auto engine = Engine::Create(RecoveryOptions(data_dir));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::set<int64_t> survived = SurvivingBurstIds(**engine);
  for (int64_t id : acked) {
    EXPECT_TRUE(survived.count(id)) << "acked id " << id << " lost";
  }
  std::vector<int64_t> fire_days = FireDays(**engine);
  std::set<int64_t> unique_days(fire_days.begin(), fire_days.end());
  EXPECT_EQ(unique_days.size(), fire_days.size());
}

}  // namespace
}  // namespace caldb
