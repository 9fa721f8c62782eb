#include "lake/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"

namespace rottnest::lake {

namespace {

constexpr char kPointerBasename[] = "_last_checkpoint";
constexpr char kCheckpointSuffix[] = ".checkpoint.json";

std::string VersionBasename(Version version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld", static_cast<long long>(version));
  return buf;
}

/// Checksum over the action stream, independent of the enclosing JSON
/// framing: each action's canonical dump (sorted keys), newline-joined —
/// the same bytes a log entry holding these actions would contain.
std::string ActionsChecksum(const std::vector<Json>& actions) {
  std::string payload;
  for (const Json& a : actions) {
    payload += a.Dump();
    payload.push_back('\n');
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Hash64(Slice(payload))));
  return buf;
}

}  // namespace

Checkpointer::Checkpointer(objectstore::ObjectStore* store,
                           std::string log_prefix)
    : store_(store),
      prefix_(std::move(log_prefix)),
      pointer_key_(prefix_ + "/" + kPointerBasename) {}

std::string Checkpointer::KeyFor(Version version) const {
  return prefix_ + "/" + VersionBasename(version) + kCheckpointSuffix;
}

bool Checkpointer::ParseCheckpointKey(const std::string& key,
                                      Version* version) {
  size_t slash = key.rfind('/');
  std::string base =
      slash == std::string::npos ? key : key.substr(slash + 1);
  constexpr size_t kSuffixLen = sizeof(".checkpoint.json") - 1;
  if (base.size() != 20 + kSuffixLen ||
      base.compare(20, kSuffixLen, kCheckpointSuffix) != 0) {
    return false;
  }
  for (int i = 0; i < 20; ++i) {
    if (base[i] < '0' || base[i] > '9') return false;
  }
  *version = std::strtoll(base.c_str(), nullptr, 10);
  return true;
}

std::string Checkpointer::EncodeBody(
    Version version, const std::vector<Json>& actions) const {
  Json::Array arr;
  arr.reserve(actions.size());
  for (const Json& a : actions) arr.push_back(a);
  Json::Object obj;
  obj["version"] = Json(static_cast<int64_t>(version));
  obj["count"] = Json(static_cast<int64_t>(actions.size()));
  obj["checksum"] = Json(ActionsChecksum(actions));
  obj["actions"] = Json(std::move(arr));
  return Json(std::move(obj)).Dump();
}

Status Checkpointer::Write(Version version,
                           const std::vector<Json>& actions) {
  std::string body = EncodeBody(version, actions);
  Status s = store_->PutIfAbsent(KeyFor(version), Slice(body));
  // AlreadyExists: a concurrent checkpointer landed the same version. Both
  // wrote equivalent state (same log prefix), so treat as success.
  if (!s.ok() && !s.IsAlreadyExists()) return s;
  return AdvancePointer(version, /*truncated_before=*/-1);
}

Status Checkpointer::Rewrite(Version version,
                             const std::vector<Json>& actions) {
  std::string body = EncodeBody(version, actions);
  ROTTNEST_RETURN_NOT_OK(store_->Put(KeyFor(version), Slice(body)));
  return AdvancePointer(version, /*truncated_before=*/-1);
}

Result<CheckpointData> Checkpointer::Read(Version version) const {
  Buffer body;
  ROTTNEST_RETURN_NOT_OK(store_->Get(KeyFor(version), &body));
  return Parse(version, body);
}

Result<CheckpointData> Checkpointer::Parse(Version version,
                                           const Buffer& body) const {
  const std::string key = KeyFor(version);
  auto parsed = Json::Parse(std::string(body.begin(), body.end()));
  if (!parsed.ok()) {
    return Status::Corruption("checkpoint " + key + ": " +
                              parsed.status().message());
  }
  const Json& doc = parsed.value();
  int64_t stored_version = -1, count = -1;
  std::string checksum;
  if (!doc.GetInt("version", &stored_version).ok() ||
      !doc.GetInt("count", &count).ok() ||
      !doc.GetString("checksum", &checksum).ok()) {
    return Status::Corruption("checkpoint " + key + ": missing header field");
  }
  if (stored_version != version) {
    return Status::Corruption("checkpoint " + key + ": header names version " +
                              std::to_string(stored_version));
  }
  Json::Array arr;
  if (Status s = doc.GetArray("actions", &arr); !s.ok()) {
    return Status::Corruption("checkpoint " + key + ": " + s.message());
  }
  if (static_cast<int64_t>(arr.size()) != count) {
    return Status::Corruption("checkpoint " + key + ": action count " +
                              std::to_string(arr.size()) + " != header " +
                              std::to_string(count));
  }
  CheckpointData data;
  data.version = version;
  data.actions.assign(arr.begin(), arr.end());
  if (ActionsChecksum(data.actions) != checksum) {
    return Status::Corruption("checkpoint " + key + ": checksum mismatch");
  }
  return data;
}

Result<CheckpointPointer> Checkpointer::ReadPointer() const {
  Buffer body;
  ROTTNEST_RETURN_NOT_OK(store_->Get(pointer_key_, &body));
  return ParsePointer(body);
}

Result<CheckpointPointer> Checkpointer::ParsePointer(
    const Buffer& body) const {
  auto parsed = Json::Parse(std::string(body.begin(), body.end()));
  if (!parsed.ok()) {
    return Status::Corruption("checkpoint pointer " + pointer_key_ + ": " +
                              parsed.status().message());
  }
  CheckpointPointer ptr;
  int64_t v = -1, t = 0;
  if (!parsed.value().GetInt("version", &v).ok() ||
      !parsed.value().GetInt("truncated_before", &t).ok()) {
    return Status::Corruption("checkpoint pointer " + pointer_key_ +
                              ": missing field");
  }
  ptr.version = v;
  ptr.truncated_before = t;
  return ptr;
}

Status Checkpointer::AdvancePointer(Version version,
                                    Version truncated_before) {
  // Monotonic merge with whatever is there: a stale writer can never move
  // the pointer backwards (a regressed pointer would only be slower, but
  // a regressed retention floor could mask truncation from readers).
  CheckpointPointer cur;
  auto existing = ReadPointer();
  if (existing.ok()) cur = existing.value();
  CheckpointPointer next;
  next.version = std::max(cur.version, version);
  next.truncated_before = std::max(cur.truncated_before, truncated_before);
  Json::Object obj;
  obj["version"] = Json(static_cast<int64_t>(next.version));
  obj["truncated_before"] = Json(static_cast<int64_t>(next.truncated_before));
  std::string body = Json(std::move(obj)).Dump();
  return store_->Put(pointer_key_, Slice(body));
}

Result<std::vector<Version>> Checkpointer::List() const {
  std::vector<objectstore::ObjectMeta> listing;
  ROTTNEST_RETURN_NOT_OK(store_->List(prefix_ + "/", &listing));
  std::vector<Version> versions;
  for (const auto& obj : listing) {
    Version v = -1;
    if (ParseCheckpointKey(obj.key, &v)) versions.push_back(v);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

Status Checkpointer::Delete(Version version) {
  return store_->Delete(KeyFor(version));
}

Result<CheckpointData> Checkpointer::NewestUsable(Version max_version,
                                                  Version skip) const {
  ROTTNEST_ASSIGN_OR_RETURN(std::vector<Version> versions, List());
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if ((max_version >= 0 && *it > max_version) || *it == skip) continue;
    auto data = Read(*it);
    if (data.ok()) return data;
  }
  return Status::NotFound("no usable checkpoint under " + prefix_);
}

}  // namespace rottnest::lake
