// adhoc_mixed: ad-hoc *text* statements on an in-memory engine.
//
// ~70% indexed point retrieves, 10% short range retrieves, 15% point
// replaces and 5% appends over a 100k-row indexed table, with Zipf-skewed
// ids.  Every statement carries its literals in its text, so the distinct
// texts far outnumber the engine's 512-entry statement cache: parsing and
// cache churn dominate, which is where literal lifting and a single
// execution path would show.  The engine has no data directory, so the
// WAL does no work.
//
// Each round loads a fresh engine and runs every client's ring of ops
// once.
//
// Correctness: each client replaces only the ids it owns (id % clients)
// and appends only ids of its own residue above the initial key range,
// so every read of an owned row has one right answer; after each round
// the whole table must equal the model.

#include <cstdio>

#include "workload.h"

namespace perfbench {
namespace {

using caldb::QueryResult;
using caldb::Result;
using caldb::Status;
using caldb::Value;

enum class Kind : uint8_t { kPoint, kRange, kReplace, kAppend };

struct Op {
  Kind kind;
  int64_t key;  // point id, range start or replace id (appends: unused)
};

constexpr int64_t kRangeWidth = 16;
constexpr size_t kSampleEvery = 97;   // statement texts kept for compile timing
constexpr size_t kSamplePerClient = 500;

int64_t InitialValue(int64_t id) { return id * 3 + 1; }
int64_t AppendValue(int64_t id) { return id * 5 + 2; }

class AdhocMixed : public Workload {
 public:
  explicit AdhocMixed(const Config& cfg)
      : cfg_(cfg),
        rows_(cfg.smoke ? 2000 : 100000),
        ring_(cfg.smoke ? 4096 : (1u << 17)),
        clients_(cfg.clients) {}

  std::vector<std::string> Classes() const override {
    return {"read", "write"};
  }
  std::vector<std::string> PrimaryClasses() const override {
    return {"read", "write"};
  }
  int Clients() const override { return clients_; }

  Status Setup(SpanRecorder::Sink* sink) override {
    {
      SpanScope span(sink, SpanName::kEngineCreate);
      CALDB_ASSIGN_OR_RETURN(engine_, caldb::Engine::Create());
    }
    std::unique_ptr<caldb::Session> session = engine_->CreateSession();
    CALDB_RETURN_IF_ERROR(
        Exec(*session, "create table kv (id int, v int, tag text)", sink));
    CALDB_RETURN_IF_ERROR(Exec(*session, "create index on kv (id)", sink));
    caldb::PreparedStatement load;
    {
      SpanScope span(sink, SpanName::kSessionPrepare);
      CALDB_ASSIGN_OR_RETURN(
          load, session->Prepare("append kv (id = $1, v = $2, tag = $3)"));
    }
    for (int64_t id = 0; id < rows_; ++id) {
      SpanScope span(sink, SpanName::kPreparedExecute);
      Result<QueryResult> r =
          load.Execute({Value::Int(id), Value::Int(InitialValue(id)),
                        Value::Text(Format("r%lld", static_cast<long long>(id)))});
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  }

  Status Prepare() override {
    Zipf zipf(rows_, 0.99, cfg_.seed);
    samples_.assign(clients_, {});
    ops_.assign(clients_, {});
    for (int c = 0; c < clients_; ++c) {
      Rng rng(cfg_.seed * 1000003 + c);
      std::vector<Op>& ops = ops_[c];
      ops.reserve(ring_);
      for (size_t i = 0; i < ring_; ++i) {
        const int64_t pick = rng.Below(100);
        const int64_t id = zipf.Draw(rng);
        if (pick < 70) {
          ops.push_back({Kind::kPoint, id});
        } else if (pick < 80) {
          ops.push_back({Kind::kRange, rng.Below(rows_ - kRangeWidth)});
        } else if (pick < 95) {
          // The owned id next to the drawn one keeps the skew.
          int64_t owned = id - id % clients_ + c;
          if (owned >= rows_) owned -= clients_;
          ops.push_back({Kind::kReplace, owned});
        } else {
          ops.push_back({Kind::kAppend, 0});
        }
      }
    }
    return Status::OK();
  }

  void Round(SpanRecorder* spans, PhaseResult* result) override {
    model_.resize(rows_);
    for (int64_t id = 0; id < rows_; ++id) model_[id] = InitialValue(id);
    appended_.assign(clients_, 0);
    for (int c = 0; c < clients_; ++c) {
      sessions_.push_back(engine_->CreateSession());
    }
    RunClients(clients_, spans, result,
               [this](int c, ClientStats& stats, SpanRecorder::Sink* sink) {
                 Client(c, stats, sink);
               });
    if (result->rounds == 0) {
      for (const auto& s : samples_) {
        result->statement_sample.insert(result->statement_sample.end(),
                                        s.begin(), s.end());
      }
    }
    CheckTable(result);
  }

  void Reset() override {
    sessions_.clear();
    engine_.reset();
  }

 private:
  // The whole table must equal the model: every initial row with its
  // owner's last value, and exactly the appended rows.
  void CheckTable(PhaseResult* result) {
    std::unique_ptr<caldb::Session> session = engine_->CreateSession();
    Result<QueryResult> all =
        session->Execute("retrieve (k.id, k.v) from k in kv");
    ClientStats& total = result->total;
    ++result->checks;
    if (!all.ok()) {
      total.Fail("final scan: " + all.status().ToString());
      return;
    }
    int64_t expected_rows = rows_;
    for (int64_t n : appended_) expected_rows += n;
    if (static_cast<int64_t>(all->rows.size()) != expected_rows) {
      total.Fail("final scan: " + std::to_string(all->rows.size()) +
                 " rows, expected " + std::to_string(expected_rows));
    }
    for (const caldb::Row& row : all->rows) {
      ++result->checks;
      const int64_t id = row[0].AsInt().value_or(-1);
      const int64_t v = row[1].AsInt().value_or(-1);
      bool ok;
      if (id >= 0 && id < rows_) {
        ok = v == model_[id];
      } else {
        const int64_t rel = id - rows_;
        ok = rel >= 0 && rel / clients_ < appended_[rel % clients_] &&
             v == AppendValue(id);
      }
      if (!ok) total.Fail("final row id=" + std::to_string(id));
    }
  }

  bool Owned(int c, int64_t id) const { return id % clients_ == c; }

  // Runs client c's ring of ops once.
  void Client(int c, ClientStats& stats, SpanRecorder::Sink* sink) {
    caldb::Session& session = *sessions_[c];
    const std::vector<Op>& ops = ops_[c];
    char text[192];
    for (int64_t i = 0; i < static_cast<int64_t>(ops.size()); ++i) {
      const Op& op = ops[i];
      int64_t value = 0;
      switch (op.kind) {
        case Kind::kPoint:
          std::snprintf(text, sizeof(text),
                        "retrieve (k.v) from k in kv where k.id = %lld",
                        static_cast<long long>(op.key));
          break;
        case Kind::kRange:
          std::snprintf(text, sizeof(text),
                        "retrieve (k.id, k.v) from k in kv where k.id >= %lld "
                        "and k.id < %lld",
                        static_cast<long long>(op.key),
                        static_cast<long long>(op.key + kRangeWidth));
          break;
        case Kind::kReplace:
          value = (int64_t{c} + 1) * 1000000000 + i;
          std::snprintf(text, sizeof(text),
                        "replace k in kv (v = %lld) where k.id = %lld",
                        static_cast<long long>(value),
                        static_cast<long long>(op.key));
          break;
        case Kind::kAppend:
          value = rows_ + appended_[c] * clients_ + c;  // the new id
          std::snprintf(text, sizeof(text),
                        "append kv (id = %lld, v = %lld, tag = 'a%lld')",
                        static_cast<long long>(value),
                        static_cast<long long>(AppendValue(value)),
                        static_cast<long long>(value));
          break;
      }
      if (i % kSampleEvery == 0 && samples_[c].size() < kSamplePerClient) {
        samples_[c].push_back(text);
      }
      const int64_t t0 = NowNs();
      Result<QueryResult> r = [&] {
        SpanScope span(sink, SpanName::kSessionExecute,
                       (int64_t{c} + 1) << 40 | i);
        return session.Execute(text);
      }();
      const int64_t ns = NowNs() - t0;
      ++stats.ops;
      const bool is_read = op.kind == Kind::kPoint || op.kind == Kind::kRange;
      Latencies& lat = is_read ? stats.read : stats.write;
      if (!r.ok()) {
        lat.Add(Latencies::kFailedNs);
        stats.Fail(std::string(text) + ": " + r.status().ToString());
        continue;
      }
      if (is_read) stats.rows_returned += static_cast<int64_t>(r->rows.size());
      const bool right = Check(c, op, value, *r, stats);
      lat.Add(right ? ns : Latencies::kFailedNs);
      if (!right) stats.Fail(std::string("wrong result: ") + text);
    }
  }

  // Checks one reply against the model and applies a write to it.
  bool Check(int c, const Op& op, int64_t value, const QueryResult& r,
             ClientStats& stats) {
    switch (op.kind) {
      case Kind::kPoint:
        return r.rows.size() == 1 &&
               (!Owned(c, op.key) ||
                r.rows[0][0].AsInt().value_or(-1) == model_[op.key]);
      case Kind::kRange: {
        if (static_cast<int64_t>(r.rows.size()) != kRangeWidth) return false;
        for (const caldb::Row& row : r.rows) {
          const int64_t id = row[0].AsInt().value_or(-1);
          if (id < op.key || id >= op.key + kRangeWidth) return false;
          if (Owned(c, id) && row[1].AsInt().value_or(-1) != model_[id]) {
            return false;
          }
        }
        return true;
      }
      case Kind::kReplace:
        model_[op.key] = value;
        ++stats.writes_acked;
        return r.affected == 1;
      case Kind::kAppend:
        ++appended_[c];
        ++stats.writes_acked;
        return r.affected == 1;
    }
    return false;
  }

  const Config cfg_;
  const int64_t rows_;
  const size_t ring_;
  const int clients_;
  std::unique_ptr<caldb::Engine> engine_;
  std::vector<std::unique_ptr<caldb::Session>> sessions_;
  std::vector<std::vector<Op>> ops_;
  // model_[id] is written only by the client owning id; appended_[c] and
  // samples_[c] only by client c.
  std::vector<int64_t> model_;
  std::vector<int64_t> appended_;
  std::vector<std::vector<std::string>> samples_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhocMixed(const Config& cfg) {
  return std::make_unique<AdhocMixed>(cfg);
}

}  // namespace perfbench
