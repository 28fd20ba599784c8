#include "engine/engine.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <variant>

#include "catalog/calendar_functions.h"
#include "catalog/catalog_io.h"
#include "common/guarded_call.h"
#include "common/macros.h"
#include "common/strings.h"
#include "engine/session.h"
#include "obs/obs.h"
#include "storage/snapshot.h"

namespace caldb {

namespace {

struct EngineMetrics {
  obs::Gauge* active_sessions =
      obs::Metrics().gauge("caldb.engine.active_sessions");
  obs::Gauge* active_sessions_max =
      obs::Metrics().gauge("caldb.engine.active_sessions_max");
  obs::Counter* statements = obs::Metrics().counter("caldb.engine.statements");
  obs::Counter* read_locks = obs::Metrics().counter("caldb.engine.read_locks");
  obs::Counter* write_locks =
      obs::Metrics().counter("caldb.engine.write_locks");
  obs::Histogram* read_wait_ns =
      obs::Metrics().histogram("caldb.engine.lock_wait_ns.read");
  obs::Histogram* write_wait_ns =
      obs::Metrics().histogram("caldb.engine.lock_wait_ns.write");
  obs::Counter* cron_advances =
      obs::Metrics().counter("caldb.engine.cron.advances");
  obs::Counter* recovery_runs = obs::Metrics().counter("caldb.recovery.runs");
  obs::Counter* recovery_snapshots =
      obs::Metrics().counter("caldb.recovery.snapshot_loads");
  obs::Counter* recovery_replayed =
      obs::Metrics().counter("caldb.recovery.replayed_records");
  obs::Counter* recovery_replay_errors =
      obs::Metrics().counter("caldb.recovery.replay_errors");
  obs::Counter* recovery_torn_tails =
      obs::Metrics().counter("caldb.recovery.torn_tails");
  obs::Histogram* recovery_ns =
      obs::Metrics().histogram("caldb.recovery.ns");
  obs::Counter* checkpoints =
      obs::Metrics().counter("caldb.storage.checkpoints");
  obs::Histogram* checkpoint_ns =
      obs::Metrics().histogram("caldb.storage.checkpoint_ns");
};

EngineMetrics& Metrics() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

// Whether executing `compiled` can modify database state, from the
// precomputed write classification.  The one dynamic bit: a plain
// retrieve is a read unless retrieve-event rules are armed at execution
// time (a §4 event rule's action may write) — an atomic flag read, so
// the hot path never re-inspects (let alone re-parses) the statement.
bool StatementWrites(const CompiledStatement& compiled, const Database& db) {
  switch (compiled.write_class) {
    case CompiledStatement::WriteClass::kRead:
      return false;
    case CompiledStatement::WriteClass::kWrite:
      return true;
    case CompiledStatement::WriteClass::kReadUnlessRetrieveRules:
      return db.HasRetrieveRules();
  }
  return true;
}

// Lifespan round-trip for kDefineCalendar records ("" = none, else
// "lo,hi" — the catalog_io.h convention).
std::string FormatLifespan(const std::optional<Interval>& lifespan) {
  if (!lifespan.has_value()) return "";
  return std::to_string(lifespan->lo) + "," + std::to_string(lifespan->hi);
}

Result<std::optional<Interval>> ParseLifespanField(std::string_view text) {
  if (text.empty()) return std::optional<Interval>(std::nullopt);
  std::vector<std::string_view> parts = StrSplit(text, ',');
  if (parts.size() != 2) {
    return Status::ParseError("bad lifespan field '" + std::string(text) + "'");
  }
  CALDB_ASSIGN_OR_RETURN(int64_t lo, ParseInt64(parts[0]));
  CALDB_ASSIGN_OR_RETURN(int64_t hi, ParseInt64(parts[1]));
  CALDB_ASSIGN_OR_RETURN(Interval interval, MakeInterval(lo, hi));
  return std::optional<Interval>(interval);
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(opts),
      catalog_(TimeSystem{opts.epoch}),
      stmt_cache_(opts.stmt_cache_entries),
      clock_(opts.start_day) {}

Result<std::unique_ptr<Engine>> Engine::Create(EngineOptions opts) {
  return GuardedCall("Create", [&]() -> Result<std::unique_ptr<Engine>> {
    auto engine = std::unique_ptr<Engine>(new Engine(opts));
    CALDB_RETURN_IF_ERROR(engine->Init());
    return engine;
  });
}

Status Engine::Init() {
  CALDB_RETURN_IF_ERROR(RegisterCalendarFunctions(&db_, &catalog_));
  if (!opts_.data_dir.empty()) {
    // Durable start: snapshot restore + WAL replay build rules_/cron_ and
    // open the writer.  No lock needed — no other thread exists yet.
    CALDB_RETURN_IF_ERROR(Recover());
  } else {
    CALDB_ASSIGN_OR_RETURN(
        rules_, TemporalRuleManager::Create(&catalog_, &db_, opts_.rule_horizon,
                                            opts_.rule_unit));
    cron_ = std::make_unique<DbCron>(rules_.get(), &clock_, opts_.probe_period);
  }
  if (opts_.slow_statement_ns >= 0) {
    Database::SetSlowStatementThresholdNs(opts_.slow_statement_ns);
  }
  std::string snapshot_path = opts_.metrics_snapshot_path;
  int snapshot_interval_ms = opts_.metrics_snapshot_interval_ms;
  if (snapshot_path.empty()) {
    const char* env_path = std::getenv("CALDB_METRICS_FILE");
    if (env_path != nullptr && *env_path != '\0') {
      snapshot_path = env_path;
      const char* env_ms = std::getenv("CALDB_METRICS_INTERVAL_MS");
      if (env_ms != nullptr && *env_ms != '\0') {
        snapshot_interval_ms = std::atoi(env_ms);
      }
    }
  }
  if (!snapshot_path.empty()) {
    obs::SnapshotterOptions snap_opts;
    snap_opts.path = snapshot_path;
    snap_opts.interval_ms = snapshot_interval_ms;
    snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(snap_opts);
    CALDB_RETURN_IF_ERROR(snapshotter_->Start());
    obs::LogEvent(obs::LogLevel::kInfo, "engine.snapshotter",
                  {{"path", snapshot_path},
                   {"interval_ms", snapshot_interval_ms}});
  }
  return Status::OK();
}

Engine::~Engine() {
  // Flip the liveness token before any teardown: a PreparedStatement
  // executed from here on fails with a clean Status instead of touching a
  // dying engine (engine/session.h).
  alive_->store(false, std::memory_order_release);
  Stop();
  // Stop() is idempotent and only checkpoints on its first call; post-Stop
  // single-threaded statements still append, so push their tail to disk.
  if (wal_ != nullptr) (void)wal_->Sync();
}

std::string Engine::SnapshotPath() const {
  return opts_.data_dir + "/snapshot";
}

std::string Engine::WalPath() const { return opts_.data_dir + "/wal"; }

Status Engine::Recover() {
  const int64_t start_ns = obs::NowNs();
  Metrics().recovery_runs->Increment();
  std::error_code ec;
  std::filesystem::create_directories(opts_.data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir '" + opts_.data_dir +
                            "': " + ec.message());
  }

  // 1. Latest valid snapshot: catalog, tables, clock.
  CALDB_ASSIGN_OR_RETURN(storage::SnapshotReadResult snapshot,
                         storage::ReadSnapshotFile(SnapshotPath()));
  uint64_t snapshot_lsn = 0;
  if (snapshot.found) {
    const storage::SnapshotImage& image = snapshot.image;
    if (!(image.epoch == opts_.epoch)) {
      return Status::InvalidArgument(
          "snapshot epoch " + FormatCivil(image.epoch) +
          " does not match engine epoch " + FormatCivil(opts_.epoch));
    }
    CALDB_RETURN_IF_ERROR(RestoreCatalog(image.catalog_dump, &catalog_));
    CALDB_RETURN_IF_ERROR(storage::RestoreTables(image, &db_));
    clock_.AdvanceTo(image.clock_day);  // clamps: start_day may be later
    snapshot_lsn = image.last_lsn;
    recovery_stats_.snapshot_loaded = true;
    Metrics().recovery_snapshots->Increment();
  }

  // 2. Rule machinery on top of the restored tables (Create skips the
  //    RULE-INFO/RULE-TIME tables when the snapshot already brought them).
  CALDB_ASSIGN_OR_RETURN(
      rules_, TemporalRuleManager::Create(&catalog_, &db_, opts_.rule_horizon,
                                          opts_.rule_unit));
  if (snapshot.found) {
    for (const auto& rule : snapshot.image.temporal_rules) {
      TemporalAction action;
      action.command = rule.command;
      CALDB_RETURN_IF_ERROR(rules_->RestoreRule(rule.id, rule.name,
                                                rule.expression,
                                                std::move(action),
                                                rule.condition_query));
    }
    rules_->SetNextId(snapshot.image.next_rule_id);
    CALDB_RETURN_IF_ERROR(storage::RestoreEventRules(snapshot.image, &db_));
  }
  cron_ = std::make_unique<DbCron>(rules_.get(), &clock_, opts_.probe_period);

  // 3. WAL tail: replay everything past the snapshot, in log order.  A
  //    record that failed originally fails identically on replay — same
  //    state either way — so replay errors are logged, counted, and
  //    skipped rather than aborting recovery.
  CALDB_ASSIGN_OR_RETURN(storage::WalReadResult wal,
                         storage::ReadWal(WalPath()));
  uint64_t max_lsn = snapshot_lsn;
  auto note_replay_error = [&](const Status& st, const storage::WalRecord& r) {
    ++recovery_stats_.replay_errors;
    Metrics().recovery_replay_errors->Increment();
    obs::LogEvent(obs::LogLevel::kWarn, "storage.replay_error",
                  {{"lsn", r.lsn},
                   {"type", static_cast<int64_t>(r.type)},
                   {"error", st.ToString()}});
  };
  for (const storage::WalRecord& record : wal.records) {
    if (record.lsn <= snapshot_lsn) continue;  // superseded by the snapshot
    max_lsn = record.lsn;
    ++recovery_stats_.wal_records_replayed;
    Metrics().recovery_replayed->Increment();
    switch (record.type) {
      case storage::WalRecordType::kStatement: {
        // Through the shared statement cache: replaying thousands of
        // identical statement shapes parses each distinct shape once.
        Result<QueryResult> r = [&]() -> Result<QueryResult> {
          CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                                 stmt_cache_.GetOrCompile(record.a));
          return db_.Execute(*compiled);
        }();
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
      case storage::WalRecordType::kDeclareRule: {
        TemporalAction action;
        action.command = record.c;
        Result<int64_t> r = rules_->DeclareRule(record.a, record.b,
                                                std::move(action), record.day,
                                                record.d);
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
      case storage::WalRecordType::kDropRule: {
        Status st = rules_->DropRule(record.a);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kAdvance: {
        // Re-fires the rules the original advance fired, in the same
        // (fire_day, rule_id) order — the firings themselves were never
        // logged, only the advance that triggered them.
        Status st = cron_->AdvanceTo(record.day);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kDefineCalendar: {
        Status st = [&] {
          CALDB_ASSIGN_OR_RETURN(std::optional<Interval> lifespan,
                                 ParseLifespanField(record.c));
          return catalog_.DefineDerived(record.a, record.b, lifespan);
        }();
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kDropCalendar: {
        Status st = catalog_.Drop(record.a);
        if (!st.ok()) note_replay_error(st, record);
        break;
      }
      case storage::WalRecordType::kParamStatement: {
        // One compiled shape per distinct statement text, one decoded
        // bind list per record: a burst of value-only-varying executions
        // replays with a single parse.
        Result<QueryResult> r = [&]() -> Result<QueryResult> {
          CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                                 stmt_cache_.GetOrCompile(record.a));
          CALDB_ASSIGN_OR_RETURN(ParamList params,
                                 storage::DecodeParamValues(record.b));
          return db_.Execute(*compiled, params);
        }();
        if (!r.ok()) note_replay_error(r.status(), record);
        break;
      }
    }
  }

  // 4. Torn tail: drop the unusable bytes so the appender never writes
  //    after garbage.
  if (wal.torn_tail) {
    obs::LogEvent(obs::LogLevel::kWarn, "storage.torn_tail",
                  {{"path", WalPath()},
                   {"valid_bytes", wal.valid_bytes},
                   {"reason", wal.tail_error}});
    CALDB_RETURN_IF_ERROR(storage::TruncateWal(WalPath(), wal.valid_bytes));
    recovery_stats_.torn_tail_truncated = true;
    Metrics().recovery_torn_tails->Increment();
  }

  // 5. Open the appender past everything replayed.  Overdue RULE-TIME
  //    entries fire on the next advance, late, exactly once — the paper's
  //    catch-up contract.
  storage::WalWriter::Options wal_opts;
  wal_opts.fsync = opts_.fsync_policy;
  wal_opts.batch_bytes = std::max<int64_t>(1, opts_.wal_batch_bytes);
  CALDB_ASSIGN_OR_RETURN(wal_,
                         storage::WalWriter::Open(WalPath(), wal_opts,
                                                  max_lsn + 1));

  Metrics().recovery_ns->Record(obs::NowNs() - start_ns);
  obs::LogEvent(obs::LogLevel::kInfo, "storage.recovery",
                {{"data_dir", opts_.data_dir},
                 {"snapshot", recovery_stats_.snapshot_loaded},
                 {"replayed", recovery_stats_.wal_records_replayed},
                 {"replay_errors", recovery_stats_.replay_errors},
                 {"torn_tail", recovery_stats_.torn_tail_truncated},
                 {"clock_day", clock_.NowDay()}});
  return Status::OK();
}

LockManager::Guard Engine::AcquireRead() const {
  Metrics().read_locks->Increment();
  const int64_t t0 = obs::Enabled() ? obs::NowNs() : 0;
  LockManager::Guard lock = lock_mgr_.AcquireGlobalShared();
  if (t0 != 0) Metrics().read_wait_ns->Record(obs::NowNs() - t0);
  return lock;
}

LockManager::Guard Engine::AcquireWrite() const {
  Metrics().write_locks->Increment();
  const int64_t t0 = obs::Enabled() ? obs::NowNs() : 0;
  LockManager::Guard lock = lock_mgr_.AcquireGlobalExclusive();
  if (t0 != 0) Metrics().write_wait_ns->Record(obs::NowNs() - t0);
  return lock;
}

LockManager::Guard Engine::AcquireStatementTables(
    const std::vector<std::string>& tables, bool exclusive) const {
  if (exclusive) {
    Metrics().write_locks->Increment();
  } else {
    Metrics().read_locks->Increment();
  }
  // The table_locks.{acquired,wait_ns} instruments are recorded inside
  // the manager itself (engine/lock_manager.cc).
  return lock_mgr_.AcquireTables(tables, exclusive);
}

std::unique_ptr<Session> Engine::CreateSession() {
  Metrics().active_sessions->Add(1);
  Metrics().active_sessions->SetWithMax(Metrics().active_sessions->value(),
                                        Metrics().active_sessions_max);
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this, id));
}

void Engine::ReleaseSession() {
  Metrics().active_sessions->Add(-1);
}

Result<QueryResult> Engine::Execute(const std::string& statement) {
  return GuardedCall("Execute", [&]() -> Result<QueryResult> {
    // Each distinct statement shape is parsed once per cache residency.
    CALDB_ASSIGN_OR_RETURN(CompiledStatementPtr compiled,
                           stmt_cache_.GetOrCompile(statement));
    return ExecuteLocked(*compiled, {});
  });
}

Status Engine::LogDurable(storage::WalRecord record) {
  if (wal_ == nullptr) return Status::OK();
  Result<uint64_t> lsn = wal_->Append(std::move(record));
  if (!lsn.ok()) {
    // Effects are applied in memory but not persisted — surface it; the
    // caller turns it into the operation's status.
    return lsn.status().WithContext("WAL append");
  }
  if (opts_.checkpoint_wal_bytes > 0 &&
      wal_->bytes() >= opts_.checkpoint_wal_bytes) {
    checkpoint_due_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

void Engine::MaybeCheckpoint() {
  if (wal_ == nullptr || !checkpoint_due_.load(std::memory_order_acquire)) {
    return;
  }
  bool expected = true;
  if (!checkpoint_due_.compare_exchange_strong(expected, false)) return;
  // A write landing between the reset above and the exclusive lock sees
  // the WAL not yet truncated and re-arms the flag; re-checking the size
  // under the lock keeps that from running a second, near-empty
  // checkpoint.
  Status st = CheckpointIfPast(opts_.checkpoint_wal_bytes);
  if (!st.ok()) {
    obs::LogEvent(obs::LogLevel::kWarn, "storage.checkpoint_error",
                  {{"error", st.ToString()}});
  }
}

Status Engine::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("engine has no data dir to checkpoint to");
  }
  return GuardedCall("Checkpoint", [&] { return CheckpointIfPast(0); });
}

Status Engine::CheckpointIfPast(int64_t min_wal_bytes) {
  LockManager::Guard lock = AcquireWrite();
  if (wal_->bytes() < min_wal_bytes) return Status::OK();
  return CheckpointLocked();
}

Status Engine::CheckpointLocked() {
  const int64_t start_ns = obs::NowNs();
  CALDB_ASSIGN_OR_RETURN(
      storage::SnapshotImage image,
      storage::CaptureSnapshot(db_, catalog_, *rules_, clock_.NowDay(),
                               wal_->last_lsn()));
  CALDB_RETURN_IF_ERROR(storage::WriteSnapshotFile(SnapshotPath(), image));
  // A crash before this truncation replays stale frames — harmless, their
  // LSNs are <= the snapshot's and replay skips them.
  CALDB_RETURN_IF_ERROR(wal_->ResetAfterCheckpoint());
  Metrics().checkpoints->Increment();
  Metrics().checkpoint_ns->Record(obs::NowNs() - start_ns);
  obs::LogEvent(obs::LogLevel::kInfo, "storage.checkpoint",
                {{"path", SnapshotPath()},
                 {"last_lsn", static_cast<int64_t>(image.last_lsn)},
                 {"clock_day", image.clock_day}});
  return Status::OK();
}

Status Engine::DefineCalendar(const std::string& name,
                              const std::string& script,
                              std::optional<Interval> lifespan_days) {
  return GuardedCall("DefineCalendar", [&]() -> Status {
    // The exclusive lock serializes the WAL append with statement/rule
    // records (lock order: db_mu_ before catalog internals).
    LockManager::Guard lock = AcquireWrite();
    CALDB_RETURN_IF_ERROR(catalog_.DefineDerived(name, script, lifespan_days));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDefineCalendar;
    record.a = name;
    record.b = script;
    record.c = FormatLifespan(lifespan_days);
    return LogDurable(std::move(record));
  });
}

Status Engine::DropCalendar(const std::string& name) {
  return GuardedCall("DropCalendar", [&]() -> Status {
    LockManager::Guard lock = AcquireWrite();
    CALDB_RETURN_IF_ERROR(catalog_.Drop(name));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDropCalendar;
    record.a = name;
    return LogDurable(std::move(record));
  });
}

Result<QueryResult> Engine::ExecuteLocked(const CompiledStatement& compiled,
                                          const ParamList& params) {
  // Bind-list validation happens before any lock or WAL traffic: a bad
  // arity or type never reaches execution or the redo log.
  CALDB_RETURN_IF_ERROR(CheckParamList(compiled, params));
  Metrics().statements->Increment();
  obs::Tracer::Span span = obs::StartSpan("engine.execute");
  // Stamp the statement into the thread's LogContext (keeping whatever
  // session a Session installed a frame up) so slow-statement log lines
  // and event-rule audit records name what the user ran.
  obs::LogContext log_ctx = obs::CurrentLogContext();
  log_ctx.statement = compiled.text;
  obs::ScopedLogContext log_scope{std::move(log_ctx)};
  // HasRetrieveRules / HasEventRules are atomic reads, so classification
  // needs no lock; rules armed between classification and acquisition are
  // picked up by the next statement (same guarantee a probing daemon
  // gives) — arming itself is rule DDL, which takes the global exclusive
  // lock and so cannot interleave with a statement already running.
  const bool writes = StatementWrites(compiled, db_);
  // The per-table path needs an exact footprint.  For writes it further
  // needs no armed event rules (a firing's action may touch tables
  // outside the footprint) and no DDL (schema changes must exclude
  // everything).  Note armed *retrieve* rules reclassify the retrieve as
  // a write above, and HasRetrieveRules implies HasEventRules — so that
  // case falls back too, as required.  Everything else, reads included,
  // takes the global exclusive lock: a read without an exact footprint
  // (hand-built explain) may touch tables it cannot name, and only the
  // global exclusive lock excludes per-table writers from all of them.
  const bool per_table = compiled.footprint_exact && !compiled.is_ddl &&
                         (!writes || !db_.HasEventRules());
  span.AddAttr("lock", !per_table ? "write"
                       : writes   ? "table-write"
                                  : "table-read");
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // Encode the bind list for the redo record before taking the lock
    // (the values are immutable for the duration of the call).
    std::string encoded_params;
    if (writes && wal_ != nullptr && !params.empty()) {
      CALDB_ASSIGN_OR_RETURN(encoded_params,
                             storage::EncodeParamValues(params));
    }
    LockManager::Guard lock =
        per_table ? AcquireStatementTables(compiled.tables, writes)
                  : AcquireWrite();
    Result<QueryResult> r = db_.Execute(compiled, params);
    if (!writes) return r;
    // Redo-log the statement whatever its outcome, before the lock is
    // released, so WAL order matches execution order per table: a failing
    // statement may have applied partial effects, and replaying it fails
    // identically.  Concurrent appends from disjoint-table writers
    // interleave, but those records commute.  A bound execution logs
    // kParamStatement (text + encoded values); recovery recompiles the
    // shape once and replays each record's own bind list.
    storage::WalRecord redo;
    redo.type = params.empty() ? storage::WalRecordType::kStatement
                               : storage::WalRecordType::kParamStatement;
    redo.a = compiled.text;
    redo.b = std::move(encoded_params);
    Status logged = LogDurable(std::move(redo));
    if (!logged.ok() && r.ok()) return logged;
    return r;
  }();
  // DDL changed schema or rule state: drop cached statements whose
  // precomputed metadata could now be stale.  Outside the db lock (the
  // cache mutex is a leaf); statements racing this drop re-compile on
  // their next miss.
  if (compiled.is_ddl && result.ok()) {
    stmt_cache_.InvalidateTables(compiled.tables);
  }
  MaybeCheckpoint();
  return result;
}

Result<int64_t> Engine::DeclareRule(const std::string& name,
                                    const std::string& expression,
                                    TemporalAction action,
                                    const std::string& condition_query) {
  return GuardedCall("DeclareRule", [&]() -> Result<int64_t> {
    LockManager::Guard lock = AcquireWrite();
    const TimePoint declared_at = Now();
    const std::string command = action.command;
    const bool has_callback = static_cast<bool>(action.callback);
    CALDB_ASSIGN_OR_RETURN(
        int64_t id, rules_->DeclareRule(name, expression, std::move(action),
                                        declared_at, condition_query));
    if (command.empty() && has_callback) {
      // A callback cannot be redo-logged; the declaration will not survive
      // recovery (docs/DURABILITY.md) — re-register it after restart.
      obs::LogEvent(obs::LogLevel::kWarn, "storage.skip_callback_rule",
                    {{"rule", name}});
      return id;
    }
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDeclareRule;
    record.a = name;
    record.b = expression;
    record.c = command;
    record.d = condition_query;
    record.day = declared_at;
    CALDB_RETURN_IF_ERROR(LogDurable(std::move(record)));
    return id;
  });
}

Status Engine::DropTemporalRule(const std::string& name) {
  return GuardedCall("DropTemporalRule", [&]() -> Status {
    LockManager::Guard lock = AcquireWrite();
    CALDB_RETURN_IF_ERROR(rules_->DropRule(name));
    storage::WalRecord record;
    record.type = storage::WalRecordType::kDropRule;
    record.a = name;
    return LogDurable(std::move(record));
  });
}

Status Engine::AdvanceTo(TimePoint day) {
  if (!IsValidPoint(day)) {
    return Status::InvalidArgument("cannot advance to point 0");
  }
  return GuardedCall("AdvanceTo", [&]() -> Status {
    // Read before queueing: a chunk another caller runs while this one
    // waits counts as part of this call.
    const TimePoint from = clock_.NowDay();
    Status st;
    {
      std::lock_guard<std::mutex> lock(cron_mu_);
      if (stopped()) return Status::InvalidArgument("engine is stopped");
      // Advance in probe-period chunks so readers interleave with firings
      // instead of stalling behind one long exclusive section.
      for (TimePoint reached = clock_.NowDay(); reached < day;) {
        const TimePoint chunk =
            std::min(day, PointAdd(reached, cron_->probe_period_days()));
        Status chunk_st;
        {
          // A child of the caller's open span, if any: cron.probe and
          // cron.fire spans parent to it, so `\trace` shows one tree per
          // advance.
          obs::Tracer::Span span = obs::StartSpan("cron.advance");
          span.AddAttr("to_day", std::to_string(chunk));
          LockManager::Guard db_lock = AcquireWrite();
          // Firings run user rule actions and callbacks: an escaping
          // exception becomes this chunk's status, and the chunk is still
          // logged and counted below.
          chunk_st = GuardedCall("AdvanceTo",
                                 [&] { return cron_->AdvanceTo(chunk); });
          // Redo-log the advance whatever its status: firings before an
          // error already applied, and replaying the advance reproduces
          // them (and the error) deterministically.  The firings
          // themselves are never logged — only the advance that triggers
          // them.
          storage::WalRecord record;
          record.type = storage::WalRecordType::kAdvance;
          record.day = chunk;
          Status logged = LogDurable(std::move(record));
          if (!logged.ok() && chunk_st.ok()) chunk_st = logged;
        }
        Metrics().cron_advances->Increment();
        reached = chunk;
        if (!chunk_st.ok()) {
          cron_error_ = chunk_st;
          cron_error_day_ = chunk;
          // A stop requested mid-advance cuts a failing advance short.
          if (stopped()) break;
        }
      }
      // An error of a chunk that ran while this call waited or ran.
      if (cron_error_day_ > from) st = cron_error_;
    }
    MaybeCheckpoint();
    return st;
  });
}

Status Engine::AdvanceToCivil(const CivilDate& date) {
  return AdvanceTo(time_system().DayPointFromCivil(date));
}

DbCron::CronStats Engine::CronStats() const {
  // Firings mutate the stats under the exclusive lock (AdvanceTo), so a
  // shared lock makes this snapshot race-free.
  LockManager::Guard lock = AcquireRead();
  return cron_->stats();
}

Status Engine::Stop() {
  return GuardedCall("Stop", [&]() -> Status {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) {
      return Status::OK();
    }
    Status st;
    {
      // Waits for an in-flight advance; advances queued behind it see
      // stopped_ and fail.  Whether the last chunk failed: no later chunk
      // moved the clock past the failed one.
      std::lock_guard<std::mutex> lock(cron_mu_);
      if (cron_error_day_ >= clock_.NowDay()) st = cron_error_;
    }
    if (snapshotter_ != nullptr) snapshotter_->Stop();
    if (wal_ != nullptr) {
      if (opts_.checkpoint_on_stop) {
        Status cp = Checkpoint();
        if (!cp.ok()) {
          obs::LogEvent(obs::LogLevel::kWarn, "storage.checkpoint_error",
                        {{"error", cp.ToString()}});
          if (st.ok()) st = cp;
        }
      } else {
        Status sync = wal_->Sync();
        if (!sync.ok() && st.ok()) st = sync;
      }
    }
    // Telemetry sinks drain last, so the checkpoint's own log events make
    // it out too: the logger's buffered file sink (the snapshotter flushed
    // its final delta in Stop() above).
    obs::Log().Flush();
    return st;
  });
}

}  // namespace caldb
