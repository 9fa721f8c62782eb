#include "lake/table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

#include "common/hash.h"
#include "format/reader.h"

namespace rottnest::lake {

namespace {

Json MakeAddAction(const DataFile& f) {
  Json::Object add;
  add["path"] = Json(f.path);
  add["rows"] = Json(static_cast<int64_t>(f.rows));
  add["bytes"] = Json(static_cast<int64_t>(f.bytes));
  add["dv"] = Json(f.dv_path);
  Json::Object action;
  action["add"] = Json(std::move(add));
  return Json(std::move(action));
}

Json MakeRemoveAction(const std::string& path) {
  Json::Object remove;
  remove["path"] = Json(path);
  Json::Object action;
  action["remove"] = Json(std::move(remove));
  return Json(std::move(action));
}

Status ParseAdd(const Json& add, DataFile* out) {
  ROTTNEST_RETURN_NOT_OK(add.GetString("path", &out->path));
  int64_t rows = 0, bytes = 0;
  ROTTNEST_RETURN_NOT_OK(add.GetInt("rows", &rows));
  ROTTNEST_RETURN_NOT_OK(add.GetInt("bytes", &bytes));
  out->rows = static_cast<uint64_t>(rows);
  out->bytes = static_cast<uint64_t>(bytes);
  ROTTNEST_RETURN_NOT_OK(add.GetString("dv", &out->dv_path));
  return Status::OK();
}

}  // namespace

Json SchemaToJson(const format::Schema& schema) {
  Json::Array cols;
  for (const format::ColumnSchema& c : schema.columns) {
    Json::Object col;
    col["name"] = Json(c.name);
    col["type"] = Json(static_cast<int64_t>(c.type));
    col["fixed_len"] = Json(static_cast<int64_t>(c.fixed_len));
    cols.push_back(Json(std::move(col)));
  }
  Json::Object meta;
  meta["columns"] = Json(std::move(cols));
  return Json(std::move(meta));
}

Status SchemaFromJson(const Json& j, format::Schema* out) {
  Json::Array cols;
  ROTTNEST_RETURN_NOT_OK(j.GetArray("columns", &cols));
  out->columns.clear();
  for (const Json& c : cols) {
    format::ColumnSchema col;
    ROTTNEST_RETURN_NOT_OK(c.GetString("name", &col.name));
    int64_t type = 0, fixed_len = 0;
    ROTTNEST_RETURN_NOT_OK(c.GetInt("type", &type));
    ROTTNEST_RETURN_NOT_OK(c.GetInt("fixed_len", &fixed_len));
    if (type < 0 ||
        type > static_cast<int64_t>(
                   format::PhysicalType::kFixedLenByteArray)) {
      return Status::Corruption("bad column type in schema");
    }
    col.type = static_cast<format::PhysicalType>(type);
    col.fixed_len = static_cast<uint32_t>(fixed_len);
    out->columns.push_back(std::move(col));
  }
  return Status::OK();
}

bool Snapshot::ContainsFile(const std::string& path) const {
  return FindFile(path) != nullptr;
}

const DataFile* Snapshot::FindFile(const std::string& path) const {
  for (const DataFile& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

uint64_t Snapshot::TotalRows() const {
  uint64_t total = 0;
  for (const DataFile& f : files) total += f.rows;
  return total;
}

uint64_t Snapshot::TotalBytes() const {
  uint64_t total = 0;
  for (const DataFile& f : files) total += f.bytes;
  return total;
}

std::string Snapshot::DebugString() const {
  Json::Array arr;
  for (const DataFile& f : files) {
    arr.push_back(MakeAddAction(f));
  }
  Json::Object obj;
  obj["version"] = Json(static_cast<int64_t>(version));
  obj["schema"] = SchemaToJson(schema);
  obj["files"] = Json(std::move(arr));
  return Json(std::move(obj)).Dump();
}

Status CompactTableActions(const std::vector<Json>& in,
                           std::vector<Json>* out) {
  std::map<std::string, Json> live;  // path -> original add action
  Json meta;
  bool have_meta = false;
  std::vector<Json> unknown;
  for (const Json& a : in) {
    Json payload;
    if (a.Get("metaData", &payload)) {
      meta = a;  // Last metaData wins, mirroring replay order.
      have_meta = true;
    } else if (a.Get("add", &payload)) {
      std::string path;
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live[path] = a;
    } else if (a.Get("remove", &payload)) {
      std::string path;
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live.erase(path);
    } else {
      // Unknown action kinds pass through verbatim, in order — a reader
      // that understands them must see them after checkpointing too.
      unknown.push_back(a);
    }
  }
  out->clear();
  if (have_meta) out->push_back(std::move(meta));
  for (Json& a : unknown) out->push_back(std::move(a));
  for (auto& [path, a] : live) out->push_back(std::move(a));
  return Status::OK();
}

Table::Table(objectstore::ObjectStore* store, std::string root,
             format::Schema schema, format::WriterOptions writer_options)
    : store_(store),
      root_(std::move(root)),
      schema_(std::move(schema)),
      writer_options_(writer_options),
      log_(store, root_ + "/_log") {
  log_.SetCompactor(CompactTableActions);
}

Result<std::unique_ptr<Table>> Table::Create(
    objectstore::ObjectStore* store, std::string root, format::Schema schema,
    format::WriterOptions writer_options) {
  std::unique_ptr<Table> table(
      new Table(store, std::move(root), std::move(schema), writer_options));
  Json::Object action;
  action["metaData"] = SchemaToJson(table->schema_);
  Status s = table->log_.Commit(0, {Json(std::move(action))});
  if (s.IsAlreadyExists()) {
    return Status::AlreadyExists("table already exists at " + table->root_);
  }
  ROTTNEST_RETURN_NOT_OK(s);
  return table;
}

Result<std::unique_ptr<Table>> Table::Open(objectstore::ObjectStore* store,
                                           std::string root) {
  TxnLog log(store, root + "/_log");
  std::vector<Json> actions;
  Status s0 = log.ReadVersion(0, &actions);
  if (s0.IsNotFound()) {
    // Entry 0 may have been truncated by log retention; the schema then
    // lives in the checkpoint (the compactor preserves metaData).
    auto replayed = log.Replay(-1, &actions);
    if (!replayed.ok()) return s0;  // Genuinely no table here.
  } else {
    ROTTNEST_RETURN_NOT_OK(s0);
  }
  format::Schema schema;
  bool found = false;
  for (const Json& a : actions) {
    Json meta;
    if (a.Get("metaData", &meta)) {
      ROTTNEST_RETURN_NOT_OK(SchemaFromJson(meta, &schema));
      found = true;
    }
  }
  if (!found) return Status::Corruption("version 0 lacks table metadata");
  return std::unique_ptr<Table>(new Table(store, std::move(root),
                                          std::move(schema),
                                          format::WriterOptions{}));
}

std::string Table::NewObjectName(const char* dir, const char* ext) {
  // Unique across concurrent writer instances even under a frozen
  // simulated clock: mix instance identity and a process-wide counter.
  static std::atomic<uint64_t> process_counter{0};
  uint64_t id = Mix64(static_cast<uint64_t>(store_->clock().NowMicros())) ^
                Mix64(reinterpret_cast<uintptr_t>(this)) ^
                Mix64(++name_counter_ * 0x85eb +
                      process_counter.fetch_add(1)) ^
                Hash64(Slice(root_));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(id));
  return root_ + "/" + dir + "/" + buf + ext;
}

Result<DataFile> Table::WriteDataFile(const format::RowBatch& batch) {
  Buffer file;
  format::FileMeta meta;
  ROTTNEST_RETURN_NOT_OK(
      format::WriteSingleFile(batch, writer_options_, &file, &meta));
  DataFile df;
  df.path = NewObjectName("data", ".lake");
  df.rows = meta.num_rows;
  df.bytes = file.size();
  ROTTNEST_RETURN_NOT_OK(store_->Put(df.path, Slice(file)));
  return df;
}

Result<Version> Table::Append(const format::RowBatch& batch) {
  ROTTNEST_RETURN_NOT_OK(batch.Validate());
  if (batch.schema.columns.size() != schema_.columns.size()) {
    return Status::InvalidArgument("batch schema mismatch");
  }
  ROTTNEST_ASSIGN_OR_RETURN(DataFile df, WriteDataFile(batch));
  return log_.CommitNext({MakeAddAction(df)});
}

Result<Snapshot> Table::GetSnapshot(Version version, ThreadPool* io) {
  ReplayTask task;
  task.log = &log_;
  task.version = version;
  TxnLog::ReplayAll({&task}, io);
  return SnapshotFrom(task);
}

Result<Snapshot> Table::SnapshotFrom(const ReplayTask& replayed,
                                     const Snapshot* held) const {
  if (!replayed.status.ok()) return replayed.status;
  Snapshot snap;
  snap.version = replayed.replayed;
  snap.schema = schema_;
  std::map<std::string, DataFile> live;
  if (replayed.caught_up) {
    if (held == nullptr || held->version != replayed.since) {
      return Status::InvalidArgument("catch-up without the held snapshot");
    }
    for (const DataFile& f : held->files) live.emplace(f.path, f);
  }
  for (const Json& a : replayed.actions) {
    Json payload;
    if (a.Get("add", &payload)) {
      DataFile df;
      ROTTNEST_RETURN_NOT_OK(ParseAdd(payload, &df));
      live[df.path] = std::move(df);
    } else if (a.Get("remove", &payload)) {
      std::string path;
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live.erase(path);
    }
  }
  snap.files.reserve(live.size());
  for (auto& [path, df] : live) snap.files.push_back(std::move(df));
  return snap;
}

Status Table::ReadDeletionVector(const DataFile& file, DeletionVector* out) {
  *out = DeletionVector();
  if (file.dv_path.empty()) return Status::OK();
  Buffer body;
  ROTTNEST_RETURN_NOT_OK(store_->Get(file.dv_path, &body));
  return DeletionVector::Deserialize(Slice(body), out);
}

Result<Version> Table::CompactFiles(uint64_t small_file_bytes) {
  ROTTNEST_ASSIGN_OR_RETURN(Snapshot snap, GetSnapshot());
  std::vector<const DataFile*> small;
  for (const DataFile& f : snap.files) {
    if (f.bytes < small_file_bytes) small.push_back(&f);
  }
  if (small.size() < 2) return snap.version;

  // Read every column of every small file, drop deleted rows, concatenate.
  format::RowBatch merged;
  merged.schema = schema_;
  for (const format::ColumnSchema& col : schema_.columns) {
    merged.columns.push_back(format::MakeEmptyColumn(col));
  }
  for (const DataFile* f : small) {
    auto reader_r = format::FileReader::Open(store_, f->path, f->bytes,
                                             nullptr);
    if (!reader_r.ok()) return reader_r.status();
    DeletionVector dv;
    ROTTNEST_RETURN_NOT_OK(ReadDeletionVector(*f, &dv));
    for (size_t c = 0; c < schema_.columns.size(); ++c) {
      format::ColumnVector col;
      ROTTNEST_RETURN_NOT_OK(reader_r.value()->ReadColumn(c, nullptr, &col));
      if (dv.empty()) {
        merged.columns[c].AppendFrom(col);
        continue;
      }
      // Filter out deleted rows.
      format::ColumnVector kept = format::MakeEmptyColumn(schema_.columns[c]);
      for (size_t r = 0; r < col.size(); ++r) {
        if (dv.Contains(r)) continue;
        switch (col.type()) {
          case format::PhysicalType::kInt64:
            kept.ints().push_back(col.ints()[r]);
            break;
          case format::PhysicalType::kDouble:
            kept.doubles().push_back(col.doubles()[r]);
            break;
          case format::PhysicalType::kByteArray:
            kept.strings().push_back(col.strings()[r]);
            break;
          case format::PhysicalType::kFixedLenByteArray:
            kept.fixed().Append(col.fixed().at(r));
            break;
        }
      }
      merged.columns[c].AppendFrom(kept);
    }
  }

  ROTTNEST_ASSIGN_OR_RETURN(DataFile df, WriteDataFile(merged));
  std::vector<Json> actions;
  for (const DataFile* f : small) actions.push_back(MakeRemoveAction(f->path));
  actions.push_back(MakeAddAction(df));
  return log_.CommitNext(actions);
}

Result<Version> Table::DeleteWhere(
    const std::string& column,
    const std::function<bool(const format::ColumnVector&, size_t)>&
        predicate) {
  int col_idx = schema_.FindColumn(column);
  if (col_idx < 0) return Status::InvalidArgument("no such column: " + column);
  ROTTNEST_ASSIGN_OR_RETURN(Snapshot snap, GetSnapshot());

  std::vector<Json> actions;
  for (const DataFile& f : snap.files) {
    auto reader_r = format::FileReader::Open(store_, f.path, f.bytes, nullptr);
    if (!reader_r.ok()) return reader_r.status();
    format::ColumnVector col;
    ROTTNEST_RETURN_NOT_OK(
        reader_r.value()->ReadColumn(col_idx, nullptr, &col));
    std::vector<uint64_t> hits;
    for (size_t r = 0; r < col.size(); ++r) {
      if (predicate(col, r)) hits.push_back(r);
    }
    if (hits.empty()) continue;

    DeletionVector dv(std::move(hits));
    DeletionVector existing;
    ROTTNEST_RETURN_NOT_OK(ReadDeletionVector(f, &existing));
    dv.Union(existing);

    Buffer body;
    dv.Serialize(&body);
    DataFile updated = f;
    updated.dv_path = NewObjectName("dv", ".dv");
    ROTTNEST_RETURN_NOT_OK(store_->Put(updated.dv_path, Slice(body)));
    actions.push_back(MakeRemoveAction(f.path));
    actions.push_back(MakeAddAction(updated));
  }
  if (actions.empty()) return snap.version;
  return log_.CommitNext(actions);
}

Result<Version> Table::Checkpoint() { return log_.WriteCheckpoint(); }

Result<size_t> Table::TruncateLog(Version keep_versions) {
  return log_.Truncate(keep_versions);
}

Result<size_t> Table::Vacuum(Micros retention_micros) {
  ROTTNEST_ASSIGN_OR_RETURN(Snapshot snap, GetSnapshot());
  std::vector<objectstore::ObjectMeta> listing;
  ROTTNEST_RETURN_NOT_OK(store_->List(root_ + "/data/", &listing));
  std::vector<objectstore::ObjectMeta> dvs;
  ROTTNEST_RETURN_NOT_OK(store_->List(root_ + "/dv/", &dvs));
  listing.insert(listing.end(), dvs.begin(), dvs.end());

  // Referenced = live data files and their deletion vectors.
  auto referenced = [&](const std::string& key) {
    for (const DataFile& f : snap.files) {
      if (f.path == key || f.dv_path == key) return true;
    }
    return false;
  };

  Micros cutoff = store_->clock().NowMicros() - retention_micros;
  size_t removed = 0;
  for (const auto& obj : listing) {
    if (referenced(obj.key)) continue;
    if (obj.created_micros > cutoff) continue;  // Too young; may be in-flight.
    ROTTNEST_RETURN_NOT_OK(store_->Delete(obj.key));
    ++removed;
  }
  return removed;
}

}  // namespace rottnest::lake
