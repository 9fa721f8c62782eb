#include "index/keyword/keyword_index.h"

#include <algorithm>

#include "compress/bitpack.h"
// For the shared "pagetable" component loader (LoadPageTable): the keyword
// file embeds its page table under the same component name and format as
// the other index types.
#include "index/trie/trie_index.h"

namespace rottnest::index {

namespace {

constexpr size_t kTargetPostingBytes = 64 << 10;
constexpr const char* kPageTableComponent = "pagetable";
constexpr const char* kDictComponent = "dict";

std::string PostingName(size_t i) { return "post." + std::to_string(i); }

// Serialized size estimate of one entry. Only consistency between the
// buffered build and the streaming merge matters (both partition with this
// function), not exactness.
size_t EntrySize(const KeywordEntry& e) {
  return 2 + e.term.size() + 2 + 2 * e.pages.size();
}

void SerializeEntry(const KeywordEntry& e, Buffer* out) {
  PutLengthPrefixedString(out, e.term);
  EncodePostings(e.pages, out);
}

Status DeserializeEntry(Decoder* dec, KeywordEntry* out) {
  ROTTNEST_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->term));
  return DecodePostings(dec, &out->pages);
}

/// Steps over one EncodePostings list without decoding it.
Status SkipPostings(Decoder* dec) {
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&n));
  if (n == 0) return Status::OK();
  Slice width_byte;
  ROTTNEST_RETURN_NOT_OK(dec->GetBytes(1, &width_byte));
  const uint64_t width = width_byte[0];
  if (width < 1 || width > 56) return Status::Corruption("bad posting width");
  if (n > dec->remaining() * 8) return Status::Corruption("posting overrun");
  Slice packed;
  return dec->GetBytes((n * width + 7) / 8, &packed);
}

/// Decodes, from one posting component, the lists of the terms
/// terms[w] for w in `wanted` into (*pages)[w]; every other entry is
/// skipped undecoded, and the scan stops once all are found. A term absent
/// from the component leaves its list empty.
Status FindPostings(Slice payload, const std::vector<std::string>& terms,
                    std::vector<size_t> wanted,
                    std::vector<std::vector<format::PageId>>* pages) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  for (uint64_t e = 0; e < n && !wanted.empty(); ++e) {
    Slice term;
    ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixed(&term));
    int first = -1;  // A term may be asked for more than once.
    for (size_t k = 0; k < wanted.size();) {
      if (Slice(terms[wanted[k]]) != term) {
        ++k;
        continue;
      }
      if (first < 0) {
        first = static_cast<int>(wanted[k]);
        ROTTNEST_RETURN_NOT_OK(DecodePostings(&dec, &(*pages)[first]));
      } else {
        (*pages)[wanted[k]] = (*pages)[first];
      }
      wanted.erase(wanted.begin() + k);
    }
    if (first < 0) ROTTNEST_RETURN_NOT_OK(SkipPostings(&dec));
  }
  return Status::OK();
}

/// The routing dictionary: the first term of every posting component.
struct Dict {
  std::vector<std::string> first_terms;
};

void SerializeDict(const Dict& dict, Buffer* out) {
  PutVarint64(out, dict.first_terms.size());
  for (const std::string& t : dict.first_terms) {
    PutLengthPrefixedString(out, t);
  }
}

Status DeserializeDict(Slice payload, Dict* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->first_terms.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    ROTTNEST_RETURN_NOT_OK(dec.GetLengthPrefixedString(&out->first_terms[i]));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing dict bytes");
  return Status::OK();
}

/// Writes sorted, term-unique entries + page table into an index file.
/// Posting-component serialization and compression fan out on `pool`; the
/// partition is computed serially first and components are appended in
/// fixed order, so the image does not depend on thread count.
Status WriteKeywordFile(const std::string& column,
                        const std::vector<KeywordEntry>& entries,
                        const format::PageTable& pages, ThreadPool* pool,
                        Buffer* out) {
  ComponentFileWriter writer(IndexType::kKeyword, column);

  Buffer table_buf;
  pages.Serialize(&table_buf);
  ROTTNEST_RETURN_NOT_OK(
      writer.AddComponent(kPageTableComponent, Slice(table_buf)));

  // Partition entries into posting components (serial: the split points
  // define the file layout and must not depend on scheduling).
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t i = 0;
  while (i < entries.size()) {
    size_t begin = i;
    size_t bytes = 0;
    while (i < entries.size() && (i == begin || bytes < kTargetPostingBytes)) {
      bytes += EntrySize(entries[i]);
      ++i;
    }
    ranges.emplace_back(begin, i);
  }

  std::vector<std::string> names(ranges.size());
  std::vector<Buffer> bodies(ranges.size());
  auto serialize_component = [&](size_t c) {
    auto [begin, end] = ranges[c];
    names[c] = PostingName(c);
    PutVarint64(&bodies[c], end - begin);
    for (size_t j = begin; j < end; ++j) {
      SerializeEntry(entries[j], &bodies[c]);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(ranges.size(), serialize_component);
  } else {
    for (size_t c = 0; c < ranges.size(); ++c) serialize_component(c);
  }
  ROTTNEST_RETURN_NOT_OK(writer.AddComponents(names, bodies, pool));

  Dict dict;
  dict.first_terms.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    dict.first_terms.push_back(entries[begin].term);
  }
  Buffer dict_buf;
  SerializeDict(dict, &dict_buf);
  // Dict written last so it lands in the tail read.
  ROTTNEST_RETURN_NOT_OK(writer.AddComponent(kDictComponent, Slice(dict_buf)));
  return writer.Finish(out);
}

/// Posting component names in numeric order. ComponentNames() is
/// lexicographic ("post.10" < "post.2"), which would scramble a streaming
/// merge's term order.
std::vector<std::string> OrderedPostingNames(
    const ComponentFileReader& input) {
  size_t count = 0;
  for (const std::string& name : input.ComponentNames()) {
    if (name.rfind("post.", 0) == 0) ++count;
  }
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(PostingName(i));
  return names;
}

/// Streams one input's entries in term order, holding a single parsed
/// component at a time and evicting each from the reader cache once
/// consumed.
class KeywordPostingStream {
 public:
  KeywordPostingStream(ComponentFileReader* input, format::PageId page_offset,
                       ThreadPool* pool, objectstore::IoTrace* trace)
      : input_(input),
        page_offset_(page_offset),
        names_(OrderedPostingNames(*input)),
        pool_(pool),
        trace_(trace) {}

  /// Loads the first component. Must be called once before
  /// current()/Advance().
  Status Init() { return LoadNext(); }

  bool exhausted() const { return exhausted_; }
  KeywordEntry& current() { return entries_[pos_]; }
  const KeywordEntry& current() const { return entries_[pos_]; }

  Status Advance() {
    if (++pos_ < entries_.size()) return Status::OK();
    return LoadNext();
  }

 private:
  Status LoadNext() {
    for (;;) {
      if (next_ > 0) input_->Evict(names_[next_ - 1]);
      if (next_ >= names_.size()) {
        exhausted_ = true;
        entries_.clear();
        return Status::OK();
      }
      Slice buf;
      ROTTNEST_RETURN_NOT_OK(
          input_->ReadComponent(names_[next_], pool_, trace_, &buf));
      ++next_;
      entries_.clear();
      ROTTNEST_RETURN_NOT_OK(ParseKeywordPostings(buf, &entries_));
      pos_ = 0;
      if (entries_.empty()) continue;  // Defensive: skip empty components.
      for (KeywordEntry& e : entries_) {
        for (format::PageId& p : e.pages) p += page_offset_;
      }
      return Status::OK();
    }
  }

  ComponentFileReader* input_;
  format::PageId page_offset_;
  std::vector<std::string> names_;
  ThreadPool* pool_;
  objectstore::IoTrace* trace_;
  std::vector<KeywordEntry> entries_;
  size_t pos_ = 0;
  size_t next_ = 0;
  bool exhausted_ = false;
};

/// Accumulates merged entries and emits posting components as they fill,
/// replicating WriteKeywordFile's partition rule (first entry always
/// admitted, further entries while the component is under
/// kTargetPostingBytes) so a streaming merge writes the same bytes as the
/// buffered path. Completed bodies flush in small batches so compression
/// can ride `pool` while peak memory stays O(batch × component).
class KeywordPostingEmitter {
 public:
  KeywordPostingEmitter(ComponentFileWriter* writer, ThreadPool* pool)
      : writer_(writer), pool_(pool) {}

  Status Append(const KeywordEntry& e) {
    if (count_ > 0 && bytes_ >= kTargetPostingBytes) {
      ROTTNEST_RETURN_NOT_OK(CloseComponent());
    }
    if (count_ == 0) first_terms_.push_back(e.term);
    bytes_ += EntrySize(e);
    SerializeEntry(e, &body_);
    ++count_;
    return Status::OK();
  }

  /// Flushes the trailing component and fills `dict`.
  Status Close(Dict* dict) {
    if (count_ > 0) ROTTNEST_RETURN_NOT_OK(CloseComponent());
    ROTTNEST_RETURN_NOT_OK(FlushBatch());
    dict->first_terms = std::move(first_terms_);
    return Status::OK();
  }

 private:
  static constexpr size_t kFlushBatchComponents = 8;

  Status CloseComponent() {
    Buffer component;
    PutVarint64(&component, count_);
    component.insert(component.end(), body_.begin(), body_.end());
    pending_names_.push_back(PostingName(next_++));
    pending_bodies_.push_back(std::move(component));
    body_.clear();
    bytes_ = 0;
    count_ = 0;
    if (pending_bodies_.size() >= kFlushBatchComponents) return FlushBatch();
    return Status::OK();
  }

  Status FlushBatch() {
    if (pending_bodies_.empty()) return Status::OK();
    Status s = writer_->AddComponents(pending_names_, pending_bodies_, pool_);
    pending_names_.clear();
    pending_bodies_.clear();
    return s;
  }

  ComponentFileWriter* writer_;
  ThreadPool* pool_;
  Buffer body_;
  size_t bytes_ = 0;
  uint64_t count_ = 0;
  size_t next_ = 0;
  std::vector<std::string> first_terms_;
  std::vector<std::string> pending_names_;
  std::vector<Buffer> pending_bodies_;
};

}  // namespace

void Tokenize(Slice text, std::vector<std::string>* out) {
  ForEachToken(text, [out](std::string_view token) {
    out->emplace_back(token);
    return true;
  });
}

bool NormalizeTerm(Slice term, std::string* out) {
  size_t count = 0;
  ForEachToken(term, [&](std::string_view token) {
    if (++count == 1) out->assign(token);
    return count < 2;
  });
  return count == 1;
}

KeywordRowMatcher::KeywordRowMatcher(std::vector<std::string> terms,
                                     bool require_all)
    : terms_(std::move(terms)), require_all_(require_all) {
  std::sort(terms_.begin(), terms_.end());
  terms_.erase(std::unique(terms_.begin(), terms_.end()), terms_.end());
  if (!terms_.empty()) {
    min_len_ = max_len_ = terms_[0].size();
    for (const std::string& t : terms_) {
      min_len_ = std::min(min_len_, t.size());
      max_len_ = std::max(max_len_, t.size());
    }
  }
}

int KeywordRowMatcher::Find(std::string_view token) const {
  if (token.size() < min_len_ || token.size() > max_len_) return -1;
  for (size_t t = 0; t < terms_.size(); ++t) {
    if (terms_[t] == token) return static_cast<int>(t);
  }
  return -1;
}

bool KeywordRowMatcher::Matches(std::string_view row) const {
  const Slice text(row);
  if (!require_all_) {
    bool hit = false;
    ForEachToken(text, [&](std::string_view token) {
      hit = Find(token) >= 0;
      return !hit;
    });
    return hit;
  }
  // AND: one bit per term, set the first time a row token equals it.
  size_t missing = terms_.size();
  if (missing == 0) return true;
  uint64_t inline_seen = 0;
  std::vector<uint64_t> heap_seen;
  uint64_t* seen = &inline_seen;
  if (terms_.size() > 64) {
    heap_seen.assign((terms_.size() + 63) / 64, 0);
    seen = heap_seen.data();
  }
  ForEachToken(text, [&](std::string_view token) {
    int t = Find(token);
    if (t >= 0) {
      uint64_t bit = 1ULL << (t % 64);
      uint64_t& word = seen[t / 64];
      if ((word & bit) == 0) {
        word |= bit;
        --missing;
      }
    }
    return missing != 0;
  });
  return missing == 0;
}

void EncodePostings(const std::vector<format::PageId>& pages, Buffer* out) {
  PutVarint64(out, pages.size());
  if (pages.empty()) return;
  std::vector<uint64_t> gaps(pages.size());
  gaps[0] = pages[0];
  uint64_t max_gap = gaps[0];
  for (size_t i = 1; i < pages.size(); ++i) {
    gaps[i] = pages[i] - pages[i - 1];
    max_gap = std::max(max_gap, gaps[i]);
  }
  int width = std::max(compress::BitWidth(max_gap), 1);
  out->push_back(static_cast<uint8_t>(width));
  compress::BitPack(gaps, width, out);
}

Status DecodePostings(Decoder* dec, std::vector<format::PageId>* out) {
  out->clear();
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec->GetVarint64(&n));
  if (n == 0) return Status::OK();
  Slice width_byte;
  ROTTNEST_RETURN_NOT_OK(dec->GetBytes(1, &width_byte));
  int width = width_byte[0];
  if (width < 1 || width > 56) return Status::Corruption("bad posting width");
  Slice packed;
  ROTTNEST_RETURN_NOT_OK(dec->GetBytes((n * width + 7) / 8, &packed));
  std::vector<uint64_t> gaps;
  ROTTNEST_RETURN_NOT_OK(compress::BitUnpack(packed, width, n, &gaps));
  out->resize(n);
  uint64_t running = 0;
  for (uint64_t i = 0; i < n; ++i) {
    running += gaps[i];
    (*out)[i] = static_cast<format::PageId>(running);
  }
  return Status::OK();
}

void KeywordIndexBuilder::Add(std::string term, format::PageId page) {
  postings_.emplace_back(std::move(term), page);
}

void KeywordIndexBuilder::PreparePageTokens(
    const std::vector<std::string>& values, std::vector<std::string>* out) {
  out->clear();
  for (const std::string& v : values) Tokenize(Slice(v), out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Status KeywordIndexBuilder::Finish(const format::PageTable& pages,
                                   ThreadPool* pool, Buffer* out) {
  std::sort(postings_.begin(), postings_.end());

  // Group postings by term, deduplicating pages.
  std::vector<KeywordEntry> entries;
  for (auto& [term, page] : postings_) {
    if (entries.empty() || entries.back().term != term) {
      entries.push_back({term, {}});
    }
    if (entries.back().pages.empty() || entries.back().pages.back() != page) {
      entries.back().pages.push_back(page);
    }
  }
  return WriteKeywordFile(column_, entries, pages, pool, out);
}

Status ParseKeywordPostings(Slice payload, std::vector<KeywordEntry>* out) {
  Decoder dec(payload);
  uint64_t n = 0;
  ROTTNEST_RETURN_NOT_OK(dec.GetVarint64(&n));
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    KeywordEntry e;
    ROTTNEST_RETURN_NOT_OK(DeserializeEntry(&dec, &e));
    out->push_back(std::move(e));
  }
  if (!dec.exhausted()) return Status::Corruption("trailing posting bytes");
  return Status::OK();
}

Status KeywordQueryMany(ComponentFileReader* reader, ThreadPool* pool,
                        objectstore::IoTrace* trace,
                        const std::vector<std::string>& terms,
                        bool require_all,
                        std::vector<format::PageId>* pages) {
  pages->clear();
  if (reader->type() != IndexType::kKeyword) {
    return Status::InvalidArgument("not a keyword index");
  }
  if (terms.empty()) return Status::OK();
  Slice dict_buf;
  ROTTNEST_RETURN_NOT_OK(
      reader->ReadComponent(kDictComponent, pool, trace, &dict_buf));
  Dict dict;
  ROTTNEST_RETURN_NOT_OK(DeserializeDict(dict_buf, &dict));

  // Route: each term's candidate component is the last one whose first
  // term <= term. Terms before all first terms have no postings.
  std::vector<int> term_component(terms.size(), -1);
  for (size_t t = 0; t < terms.size(); ++t) {
    auto it = std::upper_bound(dict.first_terms.begin(),
                               dict.first_terms.end(), terms[t]);
    if (it != dict.first_terms.begin()) {
      term_component[t] =
          static_cast<int>(it - dict.first_terms.begin()) - 1;
    } else if (require_all) {
      return Status::OK();  // A required term precedes every stored term.
    }
  }

  // One parallel round for every distinct component the terms route to.
  std::vector<int> needed;
  for (int c : term_component) {
    if (c >= 0) needed.push_back(c);
  }
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  if (needed.empty()) return Status::OK();
  std::vector<std::string> names;
  names.reserve(needed.size());
  for (int c : needed) names.push_back(PostingName(c));
  std::vector<Slice> bufs;
  ROTTNEST_RETURN_NOT_OK(reader->ReadComponents(names, pool, trace, &bufs));
  std::vector<std::vector<format::PageId>> pages_of(terms.size());
  for (size_t i = 0; i < needed.size(); ++i) {
    std::vector<size_t> wanted;
    for (size_t t = 0; t < terms.size(); ++t) {
      if (term_component[t] == needed[i]) wanted.push_back(t);
    }
    ROTTNEST_RETURN_NOT_OK(
        FindPostings(bufs[i], terms, std::move(wanted), &pages_of));
  }

  // Combine the per-term page sets: AND intersects, OR unions.
  bool first_term = true;
  std::vector<format::PageId> acc;
  for (size_t t = 0; t < terms.size(); ++t) {
    std::vector<format::PageId>& term_pages = pages_of[t];
    if (require_all) {
      if (term_pages.empty()) {
        pages->clear();
        return Status::OK();
      }
      if (first_term) {
        acc = std::move(term_pages);
      } else {
        std::vector<format::PageId> both;
        std::set_intersection(acc.begin(), acc.end(), term_pages.begin(),
                              term_pages.end(), std::back_inserter(both));
        acc = std::move(both);
        if (acc.empty()) return Status::OK();
      }
    } else {
      std::vector<format::PageId> either;
      std::set_union(acc.begin(), acc.end(), term_pages.begin(),
                     term_pages.end(), std::back_inserter(either));
      acc = std::move(either);
    }
    first_term = false;
  }
  *pages = std::move(acc);
  return Status::OK();
}

Status KeywordQuery(ComponentFileReader* reader, ThreadPool* pool,
                    objectstore::IoTrace* trace, const std::string& term,
                    std::vector<format::PageId>* pages) {
  return KeywordQueryMany(reader, pool, trace, {term}, /*require_all=*/true,
                          pages);
}

Status KeywordMerge(const std::vector<ComponentFileReader*>& inputs,
                    ThreadPool* pool, objectstore::IoTrace* trace,
                    const std::string& column, Buffer* out) {
  // Absorb every input page table first: the merged table is the
  // concatenation of the inputs' tables and is complete before any entry
  // streams, so the "pagetable" component can be written in its usual
  // first-component slot.
  format::PageTable merged_pages;
  std::vector<KeywordPostingStream> streams;
  streams.reserve(inputs.size());
  for (ComponentFileReader* input : inputs) {
    if (input->type() != IndexType::kKeyword) {
      return Status::InvalidArgument("merge input is not a keyword index");
    }
    format::PageTable table;
    ROTTNEST_RETURN_NOT_OK(LoadPageTable(input, pool, trace, &table));
    format::PageId offset = merged_pages.Absorb(table);
    streams.emplace_back(input, offset, pool, trace);
  }
  for (KeywordPostingStream& s : streams) ROTTNEST_RETURN_NOT_OK(s.Init());

  ComponentFileWriter writer(IndexType::kKeyword, column);
  Buffer table_buf;
  merged_pages.Serialize(&table_buf);
  ROTTNEST_RETURN_NOT_OK(
      writer.AddComponent(kPageTableComponent, Slice(table_buf)));

  // K-way merge by term, earliest input winning ties. Equal terms always
  // coalesce and their pages are sorted + deduplicated, so the output is
  // independent of input order among ties.
  KeywordPostingEmitter emitter(&writer, pool);
  KeywordEntry pending;
  bool has_pending = false;
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].exhausted()) continue;
      if (best < 0 || streams[i].current().term < streams[best].current().term) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    KeywordEntry e = std::move(streams[best].current());
    ROTTNEST_RETURN_NOT_OK(streams[best].Advance());
    if (has_pending && pending.term == e.term) {
      pending.pages.insert(pending.pages.end(), e.pages.begin(),
                           e.pages.end());
      std::sort(pending.pages.begin(), pending.pages.end());
      pending.pages.erase(
          std::unique(pending.pages.begin(), pending.pages.end()),
          pending.pages.end());
      continue;
    }
    if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(pending));
    pending = std::move(e);
    has_pending = true;
  }
  if (has_pending) ROTTNEST_RETURN_NOT_OK(emitter.Append(pending));

  Dict dict;
  ROTTNEST_RETURN_NOT_OK(emitter.Close(&dict));
  Buffer dict_buf;
  SerializeDict(dict, &dict_buf);
  // Dict written last so it lands in the tail read.
  ROTTNEST_RETURN_NOT_OK(writer.AddComponent(kDictComponent, Slice(dict_buf)));
  return writer.Finish(out);
}

Status CollectKeywordStats(ComponentFileReader* reader, ThreadPool* pool,
                           objectstore::IoTrace* trace,
                           KeywordIndexStats* out) {
  *out = KeywordIndexStats{};
  if (reader->type() != IndexType::kKeyword) {
    return Status::InvalidArgument("not a keyword index");
  }
  for (const std::string& name : OrderedPostingNames(*reader)) {
    Slice buf;
    ROTTNEST_RETURN_NOT_OK(reader->ReadComponent(name, pool, trace, &buf));
    std::vector<KeywordEntry> entries;
    ROTTNEST_RETURN_NOT_OK(ParseKeywordPostings(buf, &entries));
    for (const KeywordEntry& e : entries) {
      ++out->terms;
      out->postings += e.pages.size();
      Buffer encoded;
      EncodePostings(e.pages, &encoded);
      out->encoded_posting_bytes += encoded.size();
    }
    reader->Evict(name);
  }
  return Status::OK();
}

}  // namespace rottnest::index
