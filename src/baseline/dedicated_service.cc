#include "baseline/dedicated_service.h"

#include <algorithm>

#include "format/reader.h"
#include "index/ivfpq/kmeans.h"

namespace rottnest::baseline {

Result<std::unique_ptr<DedicatedService>> DedicatedService::Ingest(
    objectstore::ObjectStore* store, lake::Table* table,
    const std::string& uuid_column, const std::string& text_column,
    const std::string& vector_column, uint32_t vector_dim) {
  int uuid_idx = table->schema().FindColumn(uuid_column);
  int text_idx = table->schema().FindColumn(text_column);
  int vec_idx = table->schema().FindColumn(vector_column);
  if (uuid_idx < 0 || text_idx < 0 || vec_idx < 0) {
    return Status::InvalidArgument("missing column for ingestion");
  }

  std::unique_ptr<DedicatedService> svc(new DedicatedService());
  svc->dim_ = vector_dim;
  ROTTNEST_ASSIGN_OR_RETURN(lake::Snapshot snap, table->GetSnapshot());
  for (const lake::DataFile& f : snap.files) {
    ROTTNEST_ASSIGN_OR_RETURN(std::unique_ptr<format::FileReader> reader,
                              format::FileReader::Open(store, f.path, f.bytes,
                                                       nullptr));
    format::ColumnVector uuids, texts, vecs;
    ROTTNEST_RETURN_NOT_OK(reader->ReadColumn(uuid_idx, nullptr, &uuids));
    ROTTNEST_RETURN_NOT_OK(reader->ReadColumn(text_idx, nullptr, &texts));
    ROTTNEST_RETURN_NOT_OK(reader->ReadColumn(vec_idx, nullptr, &vecs));
    lake::DeletionVector dv;
    ROTTNEST_RETURN_NOT_OK(table->ReadDeletionVector(f, &dv));

    for (size_t r = 0; r < uuids.size(); ++r) {
      if (dv.Contains(r)) continue;
      Row row;
      row.file = f.path;
      row.row = r;
      row.text = texts.strings()[r];
      Slice raw = vecs.fixed().at(r);
      row.vector.resize(vector_dim);
      std::memcpy(row.vector.data(), raw.data(), vector_dim * 4);
      std::string id = uuids.fixed().at(r).ToString();
      svc->memory_bytes_ += id.size() + row.text.size() + vector_dim * 4 +
                            row.file.size() + 64;
      svc->uuid_index_.emplace(std::move(id), svc->rows_.size());
      svc->rows_.push_back(std::move(row));
    }
  }
  return svc;
}

std::vector<core::RowMatch> DedicatedService::SearchUuid(Slice value,
                                                         size_t k) const {
  std::vector<core::RowMatch> matches;
  auto [begin, end] = uuid_index_.equal_range(value.ToString());
  for (auto it = begin; it != end && matches.size() < k; ++it) {
    const Row& r = rows_[it->second];
    matches.push_back({r.file, r.row, value.ToString(), 0});
  }
  return matches;
}

std::vector<core::RowMatch> DedicatedService::SearchSubstring(
    const std::string& pattern, size_t k) const {
  std::vector<core::RowMatch> matches;
  for (const Row& r : rows_) {
    if (r.text.find(pattern) != std::string::npos) {
      matches.push_back({r.file, r.row, r.text, 0});
      if (matches.size() >= k) break;
    }
  }
  return matches;
}

std::vector<core::RowMatch> DedicatedService::SearchVector(
    const float* query, uint32_t dim, size_t k) const {
  std::vector<core::RowMatch> all;
  all.reserve(rows_.size());
  for (const Row& r : rows_) {
    float d = index::SquaredL2(query, r.vector.data(), dim);
    all.push_back({r.file, r.row, std::string(), d});
  }
  size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const core::RowMatch& a, const core::RowMatch& b) {
                      return a.distance < b.distance;
                    });
  all.resize(keep);
  return all;
}

}  // namespace rottnest::baseline
