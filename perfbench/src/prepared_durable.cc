// prepared_durable: prepared, bound statements on a durable engine.
//
// Eight indexed tables; each client owns the tables t with t % clients ==
// client and is the only one to write them.  Ops: 50% point reads of any
// table, 45% point replaces and 5% appends on the client's own tables —
// all through PreparedStatement handles, so nothing parses and the
// statement cache is never consulted.  The engine logs every write to the
// WAL with fsync_policy = kBatch (64 KiB batches) and checkpoints every
// 8 MiB of log (the defaults).  Each round loads a fresh engine in a
// fresh data directory and runs every client's ring of ops once, which
// logs enough for checkpoints to run in every round.  After the last
// round, the run logs a fixed tail of writes, destroys the engine without
// a final checkpoint and times Engine::Create over copies of the data
// directory, which replays that tail.  WAL append and sync, checkpoint
// stalls and per-table locks do the work here; literal lifting should not
// move it, group commit should.
//
// Correctness: reads of a client's own tables must return its last write;
// after each round and after recovery, every table must equal the
// clients' model exactly.

#include <unistd.h>

#include <filesystem>

#include "workload.h"

namespace perfbench {
namespace {

using caldb::QueryResult;
using caldb::Result;
using caldb::Status;
using caldb::Value;

constexpr int kTables = 8;
constexpr int kRecoveries = 3;
constexpr int64_t kTailWrites = 50000;  // ~5 MB of WAL, below the 8 MiB
                                        // auto-checkpoint threshold

enum class Kind : uint8_t { kRead, kReplace, kAppend };

struct Op {
  Kind kind;
  uint8_t table;
  int64_t key;
};

struct ClientStatements {
  std::vector<caldb::PreparedStatement> read;     // per table
  std::vector<caldb::PreparedStatement> replace;  // per table (own only)
  std::vector<caldb::PreparedStatement> append;   // per table (own only)
};

int64_t InitialValue(int t, int64_t id) { return id * 7 + t; }
std::string Pad(int64_t id) {
  std::string pad = "payload-" + std::to_string(id);
  pad.resize(48, '.');
  return pad;
}

class PreparedDurable : public Workload {
 public:
  explicit PreparedDurable(const Config& cfg)
      : cfg_(cfg),
        rows_(cfg.smoke ? 200 : 5000),
        ring_(cfg.smoke ? 4096 : (1u << 18)),
        clients_(cfg.clients),
        dir_(cfg.work_dir + "/durable-" + std::to_string(::getpid()) + "-" +
             std::to_string(NextInstance())) {}

  ~PreparedDurable() override {
    sessions_.clear();
    statements_.clear();
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    for (int r = 0; r < kRecoveries; ++r) {
      std::filesystem::remove_all(RecoveryDir(r), ec);
    }
  }

  std::vector<std::string> Classes() const override {
    return {"read", "write"};
  }
  std::vector<std::string> PrimaryClasses() const override {
    return {"read", "write"};
  }
  int Clients() const override { return clients_; }

  caldb::EngineOptions Options(const std::string& dir) const {
    caldb::EngineOptions opts;
    opts.data_dir = dir;
    opts.fsync_policy = caldb::storage::FsyncPolicy::kBatch;
    opts.checkpoint_on_stop = false;
    return opts;
  }

  Status Setup(SpanRecorder::Sink* sink) override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    {
      SpanScope span(sink, SpanName::kEngineCreate);
      CALDB_ASSIGN_OR_RETURN(engine_, caldb::Engine::Create(Options(dir_)));
    }
    std::unique_ptr<caldb::Session> session = engine_->CreateSession();
    for (int t = 0; t < kTables; ++t) {
      const std::string table = Format("t%d", t);
      CALDB_RETURN_IF_ERROR(Exec(
          *session, "create table " + table + " (id int, v int, pad text)",
          sink));
      CALDB_RETURN_IF_ERROR(
          Exec(*session, "create index on " + table + " (id)", sink));
      caldb::PreparedStatement load;
      {
        SpanScope span(sink, SpanName::kSessionPrepare);
        CALDB_ASSIGN_OR_RETURN(
            load, session->Prepare("append " + table +
                                   " (id = $1, v = $2, pad = $3)"));
      }
      for (int64_t id = 0; id < rows_; ++id) {
        SpanScope span(sink, SpanName::kPreparedExecute);
        Result<QueryResult> r = load.Execute(
            {Value::Int(id), Value::Int(InitialValue(t, id)),
             Value::Text(Pad(id))});
        if (!r.ok()) return r.status();
      }
    }
    return Status::OK();
  }

  Status Prepare() override {
    ops_.assign(clients_, {});
    for (int c = 0; c < clients_; ++c) {
      std::vector<int> own;
      for (int t = c; t < kTables; t += clients_) own.push_back(t);
      Rng rng(cfg_.seed * 7919 + c);
      for (size_t i = 0; i < ring_; ++i) {
        const int64_t pick = rng.Below(100);
        const int own_table = own[rng.Below(static_cast<int64_t>(own.size()))];
        if (pick < 50) {
          ops_[c].push_back({Kind::kRead,
                             static_cast<uint8_t>(rng.Below(kTables)),
                             rng.Below(rows_)});
        } else if (pick < 95) {
          ops_[c].push_back({Kind::kReplace, static_cast<uint8_t>(own_table),
                             rng.Below(rows_)});
        } else {
          ops_[c].push_back({Kind::kAppend, static_cast<uint8_t>(own_table), 0});
        }
      }
    }
    return Status::OK();
  }

  void Round(SpanRecorder* spans, PhaseResult* result) override {
    model_.assign(kTables, {});
    for (int t = 0; t < kTables; ++t) {
      for (int64_t id = 0; id < rows_; ++id) {
        model_[t].push_back(InitialValue(t, id));
      }
    }
    const Status st = PrepareStatements();
    if (!st.ok()) {
      ++result->total.ops;
      result->total.Fail("prepare: " + st.ToString());
      return;
    }
    RunClients(clients_, spans, result,
               [this](int c, ClientStats& stats, SpanRecorder::Sink* sink) {
                 Client(c, stats, sink);
               });
    if (result->rounds == 0) {
      for (const auto& s : statements_) {
        for (const auto& group : {s.read, s.replace, s.append}) {
          for (const caldb::PreparedStatement& p : group) {
            if (p.valid()) result->statement_sample.push_back(p.text());
          }
        }
      }
    }
    Verify(*engine_, "final", result);
  }

  // Removing the last round's data directory is left out of the next
  // set-up's time: it is file-system work, not the engine's.
  void Reset() override {
    statements_.clear();
    sessions_.clear();
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void Finish(PhaseResult* result) override {
    // The tail recovery replays is made fixed: checkpoint, then log exactly
    // kTailWrites replaces (well under the auto-checkpoint threshold).
    // Then destroy the engine without a checkpoint and recover from
    // identical copies of the data directory.
    ClientStats& total = result->total;
    const Status st = engine_->Checkpoint();
    if (!st.ok()) total.Fail("checkpoint before the tail: " + st.ToString());
    for (int64_t k = 0; k < kTailWrites; ++k) {
      ++result->checks;
      const int t = static_cast<int>(k % kTables);
      const int64_t key = k % rows_;
      const int64_t value = 2000000000 + k;
      Result<QueryResult> r = statements_[t % clients_].replace[t].Execute(
          {Value::Int(value), Value::Int(key)});
      if (!r.ok() || r->affected != 1) {
        total.Fail("tail replace t" + std::to_string(t));
        continue;
      }
      model_[t][key] = value;
    }
    statements_.clear();
    sessions_.clear();
    engine_.reset();
    std::vector<double> times;
    std::unique_ptr<caldb::Engine> recovered;
    for (int r = 0; r < kRecoveries; ++r) {
      std::error_code ec;
      std::filesystem::remove_all(RecoveryDir(r), ec);
      std::filesystem::copy(dir_, RecoveryDir(r),
                            std::filesystem::copy_options::recursive, ec);
      if (ec) {
        total.Fail("copy data dir: " + ec.message());
        return;
      }
      const RegistrySnapshot before = RegistrySnapshot::Take();
      const int64_t t0 = NowNs();
      Result<std::unique_ptr<caldb::Engine>> engine =
          caldb::Engine::Create(Options(RecoveryDir(r)));
      times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (!engine.ok()) {
        total.Fail("recovery: " + engine.status().ToString());
        return;
      }
      if (r == 0) {
        result->recovery_replayed =
            RegistryDelta(before, RegistrySnapshot::Take())
                .Counter("caldb.recovery.replayed_records");
      }
      // Keep only the last recovered engine (for Verify) alive.
      recovered.reset();
      if (r + 1 == kRecoveries) recovered = std::move(*engine);
    }
    result->recovery_s = Median(times);
    Verify(*recovered, "recovered", result);
  }

 private:
  static int NextInstance() {
    static int n = 0;
    return n++;
  }
  std::string RecoveryDir(int r) const {
    return dir_ + "-recovered-" + std::to_string(r);
  }

  // Sessions and every client's prepared statements on this round's
  // engine.
  Status PrepareStatements() {
    for (int c = 0; c < clients_; ++c) {
      sessions_.push_back(engine_->CreateSession());
      ClientStatements s;
      for (int t = 0; t < kTables; ++t) {
        const std::string table = Format("t%d", t);
        CALDB_ASSIGN_OR_RETURN(
            caldb::PreparedStatement read,
            sessions_[c]->Prepare("retrieve (t.v) from t in " + table +
                                  " where t.id = $1"));
        s.read.push_back(read);
        caldb::PreparedStatement replace, append;
        if (t % clients_ == c) {
          CALDB_ASSIGN_OR_RETURN(
              replace, sessions_[c]->Prepare("replace t in " + table +
                                             " (v = $1) where t.id = $2"));
          CALDB_ASSIGN_OR_RETURN(
              append, sessions_[c]->Prepare("append " + table +
                                            " (id = $1, v = $2, pad = $3)"));
        }
        s.replace.push_back(replace);
        s.append.push_back(append);
      }
      statements_.push_back(std::move(s));
    }
    return Status::OK();
  }

  // Every acknowledged write must be readable, at the end of each round
  // and after recovery: each table must hold exactly the modelled rows
  // with their last values.  `what` names the check in failures.
  void Verify(caldb::Engine& engine, const std::string& what,
              PhaseResult* result) {
    std::unique_ptr<caldb::Session> session = engine.CreateSession();
    ClientStats& total = result->total;
    for (int t = 0; t < kTables; ++t) {
      ++result->checks;
      Result<QueryResult> all = session->Execute(
          "retrieve (t.id, t.v) from t in t" + std::to_string(t));
      if (!all.ok()) {
        total.Fail(what + " scan: " + all.status().ToString());
        continue;
      }
      const std::vector<int64_t>& model = model_[t];
      if (all->rows.size() != model.size()) {
        total.Fail(what + " t" + std::to_string(t) + ": " +
                   std::to_string(all->rows.size()) + " rows, expected " +
                   std::to_string(model.size()));
      }
      for (const caldb::Row& row : all->rows) {
        ++result->checks;
        const int64_t id = row[0].AsInt().value_or(-1);
        if (id < 0 || id >= static_cast<int64_t>(model.size()) ||
            row[1].AsInt().value_or(-1) != model[id]) {
          total.Fail(what + " t" + std::to_string(t) + " id=" +
                     std::to_string(id));
        }
      }
    }
  }

  // Runs client c's ring of ops once.
  void Client(int c, ClientStats& stats, SpanRecorder::Sink* sink) {
    const ClientStatements& s = statements_[c];
    const std::vector<Op>& ops = ops_[c];
    for (int64_t i = 0; i < static_cast<int64_t>(ops.size()); ++i) {
      const Op& op = ops[i];
      std::vector<int64_t>& model = model_[op.table];
      const caldb::PreparedStatement* stmt = nullptr;
      caldb::ParamList params;
      int64_t value = 0;
      int64_t key = op.key;
      switch (op.kind) {
        case Kind::kRead:
          stmt = &s.read[op.table];
          params = {Value::Int(key)};
          break;
        case Kind::kReplace:
          stmt = &s.replace[op.table];
          value = (int64_t{c} + 1) * 1000000000 + i;
          params = {Value::Int(value), Value::Int(key)};
          break;
        case Kind::kAppend:
          // Only this client appends to its tables, so the next id is the
          // modelled row count.
          stmt = &s.append[op.table];
          key = static_cast<int64_t>(model.size());
          value = InitialValue(op.table, key);
          params = {Value::Int(key), Value::Int(value), Value::Text(Pad(key))};
          break;
      }
      const int64_t t0 = NowNs();
      Result<QueryResult> r = [&] {
        SpanScope span(sink, SpanName::kPreparedExecute,
                       (int64_t{c} + 1) << 40 | i);
        return stmt->Execute(params);
      }();
      const int64_t ns = NowNs() - t0;
      ++stats.ops;
      Latencies& lat = op.kind == Kind::kRead ? stats.read : stats.write;
      if (!r.ok()) {
        lat.Add(Latencies::kFailedNs);
        stats.Fail(stmt->text() + ": " + r.status().ToString());
        continue;
      }
      bool right;
      if (op.kind == Kind::kRead) {
        stats.rows_returned += static_cast<int64_t>(r->rows.size());
        // Rows of other clients' tables may change under us; only the
        // row count is certain for them.
        right = r->rows.size() == 1 &&
                (op.table % clients_ != c ||
                 r->rows[0][0].AsInt().value_or(-1) == model[key]);
      } else {
        ++stats.writes_acked;
        right = r->affected == 1;
        if (op.kind == Kind::kReplace) {
          model[key] = value;
        } else {
          model.push_back(value);
        }
      }
      lat.Add(right ? ns : Latencies::kFailedNs);
      if (!right) stats.Fail("wrong result: " + stmt->text());
    }
  }

  const Config cfg_;
  const int64_t rows_;
  const size_t ring_;
  const int clients_;
  const std::string dir_;
  std::unique_ptr<caldb::Engine> engine_;
  std::vector<std::unique_ptr<caldb::Session>> sessions_;
  std::vector<ClientStatements> statements_;
  std::vector<std::vector<Op>> ops_;
  // model_[t] is written only by the client owning table t.
  std::vector<std::vector<int64_t>> model_;
};

}  // namespace

std::unique_ptr<Workload> MakePreparedDurable(const Config& cfg) {
  return std::make_unique<PreparedDurable>(cfg);
}

}  // namespace perfbench
