#include "index/keyword/keyword_index.h"

#include <algorithm>

#include "compress/bitpack.h"
#include "index/sorted_components.h"

namespace rottnest::index {

namespace {

/// One dictionary entry as stored: a term and its posting list.
struct KeywordEntry {
  std::string term;
  std::vector<format::PageId> pages;
};

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

/// The keyword index's codec for the shared sorted-component layer:
/// "post.N" components of terms, fenced by the "dict" component.
struct KeywordCodec {
  using Entry = KeywordEntry;
  using FenceKey = std::string;
  static constexpr IndexType kType = IndexType::kKeyword;
  static constexpr const char* kPrefix = "post.";
  static constexpr const char* kFence = "dict";

  static size_t EntrySize(const KeywordEntry& e) {
    return 2 + e.term.size() + 2 + 2 * e.pages.size();
  }

  static void Serialize(const KeywordEntry& e, Buffer* out) {
    PutLengthPrefixedString(out, e.term);
    EncodePostings(e.pages, out);
  }

  static Status Deserialize(Decoder* dec, KeywordEntry* out) {
    ROTTNEST_RETURN_NOT_OK(dec->GetLengthPrefixedString(&out->term));
    return DecodePostings(dec, &out->pages);
  }

  static std::string FenceKeyOf(const KeywordEntry& e) { return e.term; }

  static void SerializeFence(std::vector<std::string> first_terms,
                             Buffer* out) {
    SerializeDict(Dict{std::move(first_terms)}, out);
  }

  static bool Before(const KeywordEntry& a, const KeywordEntry& b) {
    return a.term < b.term;
  }

  static bool Absorbs(const KeywordEntry& prev, const KeywordEntry& next) {
    return prev.term == next.term;
  }
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
  sorted_components::Emitter<KeywordCodec> emitter(column_, pool);
  ROTTNEST_RETURN_NOT_OK(emitter.Begin(pages));
  for (auto& [term, term_pages] :
       sorted_components::GroupPostings(&postings_)) {
    ROTTNEST_RETURN_NOT_OK(
        emitter.Append({std::move(term), std::move(term_pages)}));
  }
  return emitter.Finish(out);
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
      reader->ReadComponent(KeywordCodec::kFence, pool, trace, &dict_buf));
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
  for (int c : needed) {
    names.push_back(sorted_components::ComponentName<KeywordCodec>(c));
  }
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

Status KeywordMerge(const std::vector<ComponentFileReader*>& inputs,
                    ThreadPool* pool, objectstore::IoTrace* trace,
                    const std::string& column, Buffer* out) {
  return sorted_components::Merge<KeywordCodec>(inputs, pool, trace, column,
                                                out);
}

Status CollectKeywordStats(ComponentFileReader* reader, ThreadPool* pool,
                           objectstore::IoTrace* trace,
                           KeywordIndexStats* out) {
  *out = KeywordIndexStats{};
  if (reader->type() != IndexType::kKeyword) {
    return Status::InvalidArgument("not a keyword index");
  }
  for (const std::string& name :
       sorted_components::ComponentNames<KeywordCodec>(*reader)) {
    Slice buf;
    ROTTNEST_RETURN_NOT_OK(reader->ReadComponent(name, pool, trace, &buf));
    std::vector<KeywordEntry> entries;
    ROTTNEST_RETURN_NOT_OK(
        sorted_components::Parse<KeywordCodec>(buf, &entries));
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
