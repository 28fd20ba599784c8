// Snapshot encode/decode and capture/restore round trips.
//
// Named storage_snapshot_test (not snapshot_test) because test binaries
// take their name from the basename and tests/obs/snapshot_test.cc exists.

#include "storage/snapshot.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/calendar.h"
#include "storage/codec.h"
#include "time/time_system.h"

namespace caldb::storage {
namespace {

std::string TempPath(const char* name) {
  std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

SnapshotImage MakeImage() {
  SnapshotImage image;
  image.epoch = CivilDate{1993, 1, 1};
  image.clock_day = 42;
  image.last_lsn = 99;
  image.next_rule_id = 7;
  image.catalog_dump = "epoch 1993-01-01\n";

  SnapshotImage::TableImage table;
  table.name = "MIXED";
  table.columns = {{"i", ValueType::kInt},       {"f", ValueType::kFloat},
                   {"b", ValueType::kBool},      {"t", ValueType::kText},
                   {"iv", ValueType::kInterval}, {"c", ValueType::kCalendar}};
  table.indexed_columns = {"i"};
  table.rows.push_back({Value::Int(-5), Value::Float(2.5), Value::Bool(true),
                        Value::Text("hello \"quoted\"\nline"),
                        Value::Of(Interval{3, 9}),
                        Value::Of(Calendar::Order1(Granularity::kDays,
                                                   {{10, 12}, {20, 20}}))});
  table.rows.push_back({Value::Null(), Value::Null(), Value::Null(),
                        Value::Null(), Value::Null(), Value::Null()});
  image.tables.push_back(std::move(table));

  image.temporal_rules.push_back(
      {3, "payday", "[-1]/DAYS:during:MONTHS", "append to LOG values (1)",
       "retrieve * from LOG"});
  image.event_rules.push_back({"audit", DbEvent::kAppend, "MIXED",
                               "i > 0", "append to LOG values (2)"});
  return image;
}

void ExpectImagesEqual(const SnapshotImage& a, const SnapshotImage& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.clock_day, b.clock_day);
  EXPECT_EQ(a.last_lsn, b.last_lsn);
  EXPECT_EQ(a.next_rule_id, b.next_rule_id);
  EXPECT_EQ(a.catalog_dump, b.catalog_dump);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].name, b.tables[i].name);
    EXPECT_EQ(a.tables[i].columns, b.tables[i].columns);
    EXPECT_EQ(a.tables[i].indexed_columns, b.tables[i].indexed_columns);
    ASSERT_EQ(a.tables[i].rows.size(), b.tables[i].rows.size());
    for (size_t r = 0; r < a.tables[i].rows.size(); ++r) {
      ASSERT_EQ(a.tables[i].rows[r].size(), b.tables[i].rows[r].size());
      for (size_t c = 0; c < a.tables[i].rows[r].size(); ++c) {
        EXPECT_EQ(a.tables[i].rows[r][c].ToString(),
                  b.tables[i].rows[r][c].ToString())
            << "table " << i << " row " << r << " col " << c;
      }
    }
  }
  ASSERT_EQ(a.temporal_rules.size(), b.temporal_rules.size());
  for (size_t i = 0; i < a.temporal_rules.size(); ++i) {
    EXPECT_EQ(a.temporal_rules[i].id, b.temporal_rules[i].id);
    EXPECT_EQ(a.temporal_rules[i].name, b.temporal_rules[i].name);
    EXPECT_EQ(a.temporal_rules[i].expression, b.temporal_rules[i].expression);
    EXPECT_EQ(a.temporal_rules[i].command, b.temporal_rules[i].command);
    EXPECT_EQ(a.temporal_rules[i].condition_query,
              b.temporal_rules[i].condition_query);
  }
  ASSERT_EQ(a.event_rules.size(), b.event_rules.size());
  for (size_t i = 0; i < a.event_rules.size(); ++i) {
    EXPECT_EQ(a.event_rules[i].name, b.event_rules[i].name);
    EXPECT_EQ(a.event_rules[i].event, b.event_rules[i].event);
    EXPECT_EQ(a.event_rules[i].table, b.event_rules[i].table);
    EXPECT_EQ(a.event_rules[i].where_text, b.event_rules[i].where_text);
    EXPECT_EQ(a.event_rules[i].command, b.event_rules[i].command);
  }
}

TEST(Snapshot, EncodeDecodeRoundTripsEveryValueType) {
  SnapshotImage image = MakeImage();
  Result<std::string> blob = EncodeSnapshot(image);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<SnapshotImage> back = DecodeSnapshot(*blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectImagesEqual(image, *back);
}

TEST(Snapshot, FileRoundTripIsAtomicAndChecksummed) {
  std::string path = TempPath("caldb_snapshot_roundtrip.snp");
  SnapshotImage image = MakeImage();
  ASSERT_TRUE(WriteSnapshotFile(path, image).ok());

  Result<SnapshotReadResult> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE(read->found);
  ExpectImagesEqual(image, read->image);

  // No stray tmp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(Snapshot, MissingFileReadsAsNotFound) {
  Result<SnapshotReadResult> read =
      ReadSnapshotFile(TempPath("caldb_snapshot_missing.snp"));
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->found);
}

TEST(Snapshot, CorruptFileIsAHardError) {
  std::string path = TempPath("caldb_snapshot_corrupt.snp");
  SnapshotImage image = MakeImage();
  ASSERT_TRUE(WriteSnapshotFile(path, image).ok());

  // Flip a byte in the payload: unlike the WAL, a snapshot is
  // all-or-nothing — no partial salvage.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadSnapshotFile(path).ok());

  // Bad magic fails too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTASNAP" << std::string(32, '\0');
  }
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

// A checksummed image whose zero-column table claims 2^32-1 rows.  Each
// such row decodes from zero bytes, so only the row count can bound the
// decoder: it must fail with a Status, not grow rows until allocation
// fails.
TEST(Snapshot, ZeroColumnTableWithRowsIsAParseError) {
  SnapshotImage image;
  image.epoch = CivilDate{1993, 1, 1};
  SnapshotImage::TableImage table;
  table.name = "EMPTY";
  image.tables.push_back(table);
  Result<std::string> blob = EncodeSnapshot(image);
  ASSERT_TRUE(blob.ok()) << blob.status();
  // The payload ends with the table's row count, then the temporal and
  // event rule counts.  Patch the row count and re-seal the checksum.
  std::string bytes = *blob;
  const size_t row_count_at = bytes.size() - 12;
  for (size_t i = 0; i < 4; ++i) bytes[row_count_at + i] = '\xFF';
  std::string crc;
  PutU32(&crc, Crc32(std::string_view(bytes).substr(20)));
  bytes.replace(16, 4, crc);

  Result<SnapshotImage> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
      << decoded.status();
}

TEST(Snapshot, CaptureAndRestoreTablesReproducesTheDatabase) {
  TimeSystem time_system{CivilDate{1993, 1, 1}};
  CalendarCatalog catalog{time_system};
  ASSERT_TRUE(catalog.DefineDerived("Tuesdays", "[2]/DAYS:during:WEEKS").ok());

  Database db;
  ASSERT_TRUE(db.Execute("create table EMP (id int, name text, paid bool)").ok());
  ASSERT_TRUE(db.Execute("create index on EMP (id)").ok());
  ASSERT_TRUE(db.Execute("append EMP (id = 1, name = 'ada', paid = true)").ok());
  ASSERT_TRUE(db.Execute("append EMP (id = 2, name = 'grace', paid = false)").ok());

  auto rules = TemporalRuleManager::Create(&catalog, &db, 500);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  TemporalAction action;
  action.command = "append EMP (id = 3, name = 'mary', paid = true)";
  ASSERT_TRUE(
      (*rules)->DeclareRule("hire", "Tuesdays", std::move(action), 1).ok());

  Result<SnapshotImage> image = CaptureSnapshot(db, catalog, **rules, 17, 23);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->clock_day, 17);
  EXPECT_EQ(image->last_lsn, 23u);
  EXPECT_EQ(image->next_rule_id, (*rules)->next_id());
  ASSERT_EQ(image->temporal_rules.size(), 1u);
  EXPECT_EQ(image->temporal_rules[0].name, "hire");
  EXPECT_NE(image->catalog_dump.find("Tuesdays"), std::string::npos);

  // Round trip through bytes, then restore the tables into a fresh db.
  Result<std::string> blob = EncodeSnapshot(*image);
  ASSERT_TRUE(blob.ok());
  Result<SnapshotImage> decoded = DecodeSnapshot(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  Database fresh;
  ASSERT_TRUE(RestoreTables(*decoded, &fresh).ok());
  Result<QueryResult> rows =
      fresh.Execute("retrieve (e.id, e.name, e.paid) from e in EMP");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);
  Result<Table*> table = fresh.GetTable("EMP");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->HasIndex("id"));

  // RULE_INFO / RULE_TIME travel as ordinary tables.
  Result<QueryResult> rule_rows =
      fresh.Execute("retrieve (t.next_fire) from t in RULE_TIME");
  ASSERT_TRUE(rule_rows.ok()) << rule_rows.status().ToString();
  EXPECT_EQ(rule_rows->rows.size(), 1u);
}

TEST(Snapshot, RestoreTablesRejectsNameClashes) {
  SnapshotImage image = MakeImage();
  Database db;
  ASSERT_TRUE(db.Execute("create table MIXED (x int)").ok());
  EXPECT_FALSE(RestoreTables(image, &db).ok());
}

}  // namespace
}  // namespace caldb::storage
