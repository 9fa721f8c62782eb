#include "lake/metadata_table.h"

#include <map>

namespace rottnest::lake {

namespace {

Json EntryToJson(const IndexEntry& e) {
  Json::Object obj;
  obj["path"] = Json(e.index_path);
  obj["type"] = Json(e.index_type);
  obj["column"] = Json(e.column);
  Json::Array files;
  for (const std::string& f : e.covered_files) files.push_back(Json(f));
  obj["files"] = Json(std::move(files));
  obj["rows"] = Json(static_cast<int64_t>(e.rows));
  obj["created"] = Json(static_cast<int64_t>(e.created_micros));
  Json::Object action;
  action["addIndex"] = Json(std::move(obj));
  return Json(std::move(action));
}

Status EntryFromJson(const Json& obj, IndexEntry* out) {
  ROTTNEST_RETURN_NOT_OK(obj.GetString("path", &out->index_path));
  ROTTNEST_RETURN_NOT_OK(obj.GetString("type", &out->index_type));
  ROTTNEST_RETURN_NOT_OK(obj.GetString("column", &out->column));
  Json::Array files;
  ROTTNEST_RETURN_NOT_OK(obj.GetArray("files", &files));
  out->covered_files.clear();
  for (const Json& f : files) {
    if (!f.is_string()) return Status::Corruption("non-string covered file");
    out->covered_files.push_back(f.AsString());
  }
  int64_t rows = 0, created = 0;
  ROTTNEST_RETURN_NOT_OK(obj.GetInt("rows", &rows));
  ROTTNEST_RETURN_NOT_OK(obj.GetInt("created", &created));
  out->rows = static_cast<uint64_t>(rows);
  out->created_micros = created;
  return Status::OK();
}

}  // namespace

Status CompactMetaActions(const std::vector<Json>& in,
                          std::vector<Json>* out) {
  std::map<std::string, Json> live;  // index_path -> original addIndex
  std::vector<Json> unknown;
  for (const Json& a : in) {
    Json payload;
    std::string path;
    if (a.Get("addIndex", &payload)) {
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live[path] = a;
    } else if (a.Get("removeIndex", &payload)) {
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live.erase(path);
    } else {
      unknown.push_back(a);  // Forward compatibility: pass through.
    }
  }
  out->clear();
  for (Json& a : unknown) out->push_back(std::move(a));
  for (auto& [path, a] : live) out->push_back(std::move(a));
  return Status::OK();
}

Result<Version> MetadataTable::Update(const std::vector<IndexEntry>& added,
                                      const std::vector<std::string>& removed) {
  std::vector<Json> actions;
  for (const std::string& path : removed) {
    Json::Object rm;
    rm["path"] = Json(path);
    Json::Object action;
    action["removeIndex"] = Json(std::move(rm));
    actions.push_back(Json(std::move(action)));
  }
  for (const IndexEntry& e : added) actions.push_back(EntryToJson(e));
  return log_.CommitNext(actions);
}

Result<std::vector<IndexEntry>> MetadataTable::ReadAll(ThreadPool* io) {
  ReplayTask task;
  task.log = &log_;
  TxnLog::ReplayAll({&task}, io);
  return EntriesFrom(task);
}

Result<std::vector<IndexEntry>> MetadataTable::EntriesFrom(
    const ReplayTask& replayed, const std::vector<IndexEntry>* held) {
  if (replayed.status.IsNotFound()) {
    return std::vector<IndexEntry>{};  // Empty registry.
  }
  if (!replayed.status.ok()) return replayed.status;

  std::map<std::string, IndexEntry> live;
  if (replayed.caught_up) {
    if (held == nullptr) {
      return Status::InvalidArgument("catch-up without the held entries");
    }
    for (const IndexEntry& e : *held) live.emplace(e.index_path, e);
  }
  for (const Json& a : replayed.actions) {
    Json payload;
    if (a.Get("addIndex", &payload)) {
      IndexEntry e;
      ROTTNEST_RETURN_NOT_OK(EntryFromJson(payload, &e));
      live[e.index_path] = std::move(e);
    } else if (a.Get("removeIndex", &payload)) {
      std::string path;
      ROTTNEST_RETURN_NOT_OK(payload.GetString("path", &path));
      live.erase(path);
    }
  }
  std::vector<IndexEntry> result;
  result.reserve(live.size());
  for (auto& [path, e] : live) result.push_back(std::move(e));
  return result;
}

}  // namespace rottnest::lake
