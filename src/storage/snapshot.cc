#include "storage/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "catalog/catalog_io.h"
#include "common/macros.h"
#include "lang/parser.h"
#include "obs/obs.h"
#include "storage/codec.h"

namespace caldb::storage {

namespace {

constexpr char kMagic[] = "CALDBSNP";  // 8 bytes, no terminator on disk
constexpr uint32_t kVersion = 1;

Status Errno(std::string_view what, const std::string& path) {
  return Status::Internal(std::string(what) + " failed for '" + path +
                          "': " + std::strerror(errno));
}

// --- Value cells ------------------------------------------------------------

// One-byte tags; kCalendar cells are written as their granularity-tagged
// literal text (e.g. "DAYS{(1,5)}") and re-parsed on decode, mirroring
// how catalog_io.cc persists value calendars.
Status EncodeValue(const Value& value, std::string* out) {
  PutU8(out, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      return Status::OK();
    case ValueType::kInt: {
      CALDB_ASSIGN_OR_RETURN(int64_t v, value.AsInt());
      PutI64(out, v);
      return Status::OK();
    }
    case ValueType::kFloat: {
      CALDB_ASSIGN_OR_RETURN(double v, value.AsFloat());
      PutF64(out, v);
      return Status::OK();
    }
    case ValueType::kBool: {
      CALDB_ASSIGN_OR_RETURN(bool v, value.AsBool());
      PutU8(out, v ? 1 : 0);
      return Status::OK();
    }
    case ValueType::kText: {
      CALDB_ASSIGN_OR_RETURN(std::string v, value.AsText());
      PutString(out, v);
      return Status::OK();
    }
    case ValueType::kInterval: {
      CALDB_ASSIGN_OR_RETURN(Interval v, value.AsInterval());
      PutI64(out, v.lo);
      PutI64(out, v.hi);
      return Status::OK();
    }
    case ValueType::kCalendar: {
      CALDB_ASSIGN_OR_RETURN(Calendar v, value.AsCalendar());
      PutString(out, std::string(GranularityName(v.granularity())) +
                         v.ToString());
      return Status::OK();
    }
  }
  return Status::Internal("unencodable value type");
}

Result<Value> DecodeValue(Decoder* dec) {
  CALDB_ASSIGN_OR_RETURN(uint8_t tag, dec->ReadU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      CALDB_ASSIGN_OR_RETURN(int64_t v, dec->ReadI64());
      return Value::Int(v);
    }
    case ValueType::kFloat: {
      CALDB_ASSIGN_OR_RETURN(double v, dec->ReadF64());
      return Value::Float(v);
    }
    case ValueType::kBool: {
      CALDB_ASSIGN_OR_RETURN(uint8_t v, dec->ReadU8());
      return Value::Bool(v != 0);
    }
    case ValueType::kText: {
      CALDB_ASSIGN_OR_RETURN(std::string v, dec->ReadString());
      return Value::Text(std::move(v));
    }
    case ValueType::kInterval: {
      CALDB_ASSIGN_OR_RETURN(int64_t lo, dec->ReadI64());
      CALDB_ASSIGN_OR_RETURN(int64_t hi, dec->ReadI64());
      CALDB_ASSIGN_OR_RETURN(Interval v, MakeInterval(lo, hi));
      return Value::Of(v);
    }
    case ValueType::kCalendar: {
      CALDB_ASSIGN_OR_RETURN(std::string text, dec->ReadString());
      CALDB_ASSIGN_OR_RETURN(ExprPtr literal, ParseExpression(text));
      if (literal->kind != Expr::Kind::kLiteral) {
        return Status::ParseError("snapshot calendar cell '" + text +
                                  "' is not a calendar literal");
      }
      return Value::Of(literal->literal);
    }
  }
  return Status::ParseError("unknown value type tag " + std::to_string(tag));
}

}  // namespace

Result<std::string> EncodeParamValues(const ParamList& params) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(params.size()));
  for (const Value& value : params) {
    CALDB_RETURN_IF_ERROR(EncodeValue(value, &out));
  }
  return out;
}

Result<ParamList> DecodeParamValues(std::string_view blob) {
  Decoder dec(blob);
  CALDB_ASSIGN_OR_RETURN(uint32_t count, dec.ReadU32());
  // A frame-level CRC has already vetted the blob, so a huge count means
  // a logic bug, not corruption — but cap it anyway before reserving.
  if (count > 1'000'000) {
    return Status::ParseError("parameter list count " + std::to_string(count) +
                              " is implausible");
  }
  ParamList params;
  params.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CALDB_ASSIGN_OR_RETURN(Value v, DecodeValue(&dec));
    params.push_back(std::move(v));
  }
  return params;
}

Result<SnapshotImage> CaptureSnapshot(const Database& db,
                                      const CalendarCatalog& catalog,
                                      const TemporalRuleManager& rules,
                                      TimePoint clock_day, uint64_t last_lsn) {
  SnapshotImage image;
  image.epoch = catalog.time_system().epoch();
  image.clock_day = clock_day;
  image.last_lsn = last_lsn;
  image.next_rule_id = rules.next_id();
  CALDB_ASSIGN_OR_RETURN(image.catalog_dump, DumpCatalog(catalog));

  for (const std::string& name : db.ListTables()) {
    CALDB_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    SnapshotImage::TableImage ti;
    ti.name = name;
    ti.columns = table->schema().columns();
    for (const Column& column : ti.columns) {
      if (column.type == ValueType::kInt && table->HasIndex(column.name)) {
        ti.indexed_columns.push_back(column.name);
      }
    }
    table->Scan([&](RowId, const Row& row) {
      ti.rows.push_back(row);
      return true;
    });
    image.tables.push_back(std::move(ti));
  }

  for (const TemporalRule& rule : rules.ListRuleDefs()) {
    if (rule.action.command.empty()) {
      // Callback-only: the function object cannot be serialized.  The
      // RULE-INFO/RULE-TIME rows still restore with the tables, but the
      // in-memory rule (and hence its firings) will be absent until the
      // application re-registers it.
      obs::LogEvent(obs::LogLevel::kWarn, "storage.skip_callback_rule",
                    {{"rule", rule.name}});
      continue;
    }
    image.temporal_rules.push_back({rule.id, rule.name, rule.expression,
                                    rule.action.command,
                                    rule.condition_query});
  }

  for (const EventRule& rule : db.event_rules()) {
    if (rule.command.empty()) {
      obs::LogEvent(obs::LogLevel::kWarn, "storage.skip_callback_rule",
                    {{"rule", rule.name}});
      continue;
    }
    SnapshotImage::EventRuleImage ei;
    ei.name = rule.name;
    ei.event = rule.event;
    ei.table = rule.table;
    if (rule.where != nullptr) ei.where_text = rule.where->ToString();
    ei.command = rule.command;
    image.event_rules.push_back(std::move(ei));
  }
  return image;
}

Result<std::string> EncodeSnapshot(const SnapshotImage& image) {
  std::string payload;
  PutI64(&payload, image.epoch.year);
  PutI64(&payload, image.epoch.month);
  PutI64(&payload, image.epoch.day);
  PutI64(&payload, image.clock_day);
  PutU64(&payload, image.last_lsn);
  PutI64(&payload, image.next_rule_id);
  PutString(&payload, image.catalog_dump);

  PutU32(&payload, static_cast<uint32_t>(image.tables.size()));
  for (const auto& table : image.tables) {
    PutString(&payload, table.name);
    PutU32(&payload, static_cast<uint32_t>(table.columns.size()));
    for (const Column& column : table.columns) {
      PutString(&payload, column.name);
      PutU8(&payload, static_cast<uint8_t>(column.type));
    }
    PutU32(&payload, static_cast<uint32_t>(table.indexed_columns.size()));
    for (const std::string& column : table.indexed_columns) {
      PutString(&payload, column);
    }
    PutU32(&payload, static_cast<uint32_t>(table.rows.size()));
    for (const Row& row : table.rows) {
      for (const Value& value : row) {
        CALDB_RETURN_IF_ERROR(EncodeValue(value, &payload));
      }
    }
  }

  PutU32(&payload, static_cast<uint32_t>(image.temporal_rules.size()));
  for (const auto& rule : image.temporal_rules) {
    PutI64(&payload, rule.id);
    PutString(&payload, rule.name);
    PutString(&payload, rule.expression);
    PutString(&payload, rule.command);
    PutString(&payload, rule.condition_query);
  }

  PutU32(&payload, static_cast<uint32_t>(image.event_rules.size()));
  for (const auto& rule : image.event_rules) {
    PutString(&payload, rule.name);
    PutU8(&payload, static_cast<uint8_t>(rule.event));
    PutString(&payload, rule.table);
    PutString(&payload, rule.where_text);
    PutString(&payload, rule.command);
  }

  std::string out(kMagic, 8);
  PutU32(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload));
  out += payload;
  return out;
}

Result<SnapshotImage> DecodeSnapshot(std::string_view blob) {
  if (blob.size() < 8 + 12 || blob.substr(0, 8) != std::string_view(kMagic, 8)) {
    return Status::ParseError("not a caldb snapshot (bad magic)");
  }
  Decoder header(blob.substr(8, 12));
  const uint32_t version = *header.ReadU32();
  if (version != kVersion) {
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(version));
  }
  const uint32_t len = *header.ReadU32();
  const uint32_t crc = *header.ReadU32();
  if (blob.size() - 20 != len) {
    return Status::ParseError("snapshot payload length mismatch");
  }
  const std::string_view payload = blob.substr(20);
  if (Crc32(payload) != crc) {
    return Status::ParseError("snapshot checksum mismatch");
  }

  Decoder dec(payload);
  SnapshotImage image;
  CALDB_ASSIGN_OR_RETURN(int64_t year, dec.ReadI64());
  CALDB_ASSIGN_OR_RETURN(int64_t month, dec.ReadI64());
  CALDB_ASSIGN_OR_RETURN(int64_t day, dec.ReadI64());
  image.epoch = CivilDate{static_cast<int32_t>(year),
                          static_cast<int32_t>(month),
                          static_cast<int32_t>(day)};
  CALDB_ASSIGN_OR_RETURN(image.clock_day, dec.ReadI64());
  CALDB_ASSIGN_OR_RETURN(image.last_lsn, dec.ReadU64());
  CALDB_ASSIGN_OR_RETURN(image.next_rule_id, dec.ReadI64());
  CALDB_ASSIGN_OR_RETURN(image.catalog_dump, dec.ReadString());

  CALDB_ASSIGN_OR_RETURN(uint32_t table_count, dec.ReadU32());
  for (uint32_t t = 0; t < table_count; ++t) {
    SnapshotImage::TableImage ti;
    CALDB_ASSIGN_OR_RETURN(ti.name, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(uint32_t column_count, dec.ReadU32());
    for (uint32_t c = 0; c < column_count; ++c) {
      Column column;
      CALDB_ASSIGN_OR_RETURN(column.name, dec.ReadString());
      CALDB_ASSIGN_OR_RETURN(uint8_t type_tag, dec.ReadU8());
      if (type_tag > static_cast<uint8_t>(ValueType::kCalendar)) {
        return Status::ParseError("bad column type tag in snapshot");
      }
      column.type = static_cast<ValueType>(type_tag);
      ti.columns.push_back(std::move(column));
    }
    CALDB_ASSIGN_OR_RETURN(uint32_t index_count, dec.ReadU32());
    for (uint32_t idx = 0; idx < index_count; ++idx) {
      CALDB_ASSIGN_OR_RETURN(std::string column, dec.ReadString());
      ti.indexed_columns.push_back(std::move(column));
    }
    CALDB_ASSIGN_OR_RETURN(uint32_t row_count, dec.ReadU32());
    // Every cell takes at least its one-byte tag, so a row count the bytes
    // left cannot hold is corrupt.  A zero-column row would take no bytes
    // at all, so a zero-column table holds no rows.
    if (column_count == 0 ? row_count > 0
                          : row_count > dec.remaining() / column_count) {
      return Status::ParseError("snapshot row count exceeds its payload");
    }
    for (uint32_t r = 0; r < row_count; ++r) {
      Row row;
      row.reserve(column_count);
      for (uint32_t c = 0; c < column_count; ++c) {
        CALDB_ASSIGN_OR_RETURN(Value value, DecodeValue(&dec));
        row.push_back(std::move(value));
      }
      ti.rows.push_back(std::move(row));
    }
    image.tables.push_back(std::move(ti));
  }

  CALDB_ASSIGN_OR_RETURN(uint32_t rule_count, dec.ReadU32());
  for (uint32_t r = 0; r < rule_count; ++r) {
    SnapshotImage::TemporalRuleImage rule;
    CALDB_ASSIGN_OR_RETURN(rule.id, dec.ReadI64());
    CALDB_ASSIGN_OR_RETURN(rule.name, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(rule.expression, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(rule.command, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(rule.condition_query, dec.ReadString());
    image.temporal_rules.push_back(std::move(rule));
  }

  CALDB_ASSIGN_OR_RETURN(uint32_t event_count, dec.ReadU32());
  for (uint32_t r = 0; r < event_count; ++r) {
    SnapshotImage::EventRuleImage rule;
    CALDB_ASSIGN_OR_RETURN(rule.name, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(uint8_t event_tag, dec.ReadU8());
    if (event_tag > static_cast<uint8_t>(DbEvent::kRetrieve)) {
      return Status::ParseError("bad event tag in snapshot");
    }
    rule.event = static_cast<DbEvent>(event_tag);
    CALDB_ASSIGN_OR_RETURN(rule.table, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(rule.where_text, dec.ReadString());
    CALDB_ASSIGN_OR_RETURN(rule.command, dec.ReadString());
    image.event_rules.push_back(std::move(rule));
  }
  if (!dec.done()) {
    return Status::ParseError("trailing bytes after snapshot payload");
  }
  return image;
}

Status WriteSnapshotFile(const std::string& path, const SnapshotImage& image) {
  CALDB_ASSIGN_OR_RETURN(std::string blob, EncodeSnapshot(image));
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t off = 0;
  while (off < blob.size()) {
    ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status err = Errno("write", tmp);
      ::close(fd);
      return err;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status err = Errno("fsync", tmp);
    ::close(fd);
    return err;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) return Errno("rename", tmp);
  // Make the rename itself durable.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<SnapshotReadResult> ReadSnapshotFile(const std::string& path) {
  SnapshotReadResult result;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return result;
    return Errno("open", path);
  }
  std::string blob;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status err = Errno("read", path);
      ::close(fd);
      return err;
    }
    if (n == 0) break;
    blob.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  CALDB_ASSIGN_OR_RETURN(result.image, DecodeSnapshot(blob));
  result.found = true;
  return result;
}

Status RestoreTables(const SnapshotImage& image, Database* db) {
  for (const auto& ti : image.tables) {
    CALDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(ti.columns));
    CALDB_RETURN_IF_ERROR(db->CreateTable(ti.name, std::move(schema)));
    CALDB_ASSIGN_OR_RETURN(Table * table, db->GetTable(ti.name));
    for (const Row& row : ti.rows) {
      CALDB_RETURN_IF_ERROR(table->Insert(row).status());
    }
    // Indexes after the bulk insert (CreateIndex indexes existing rows).
    for (const std::string& column : ti.indexed_columns) {
      CALDB_RETURN_IF_ERROR(table->CreateIndex(column));
    }
  }
  return Status::OK();
}

Status RestoreEventRules(const SnapshotImage& image, Database* db) {
  for (const auto& ei : image.event_rules) {
    EventRule rule;
    rule.name = ei.name;
    rule.event = ei.event;
    rule.table = ei.table;
    if (!ei.where_text.empty()) {
      CALDB_ASSIGN_OR_RETURN(rule.where, ParseDbExpression(ei.where_text));
    }
    rule.command = ei.command;
    CALDB_RETURN_IF_ERROR(db->DefineRule(std::move(rule)));
  }
  return Status::OK();
}

}  // namespace caldb::storage
