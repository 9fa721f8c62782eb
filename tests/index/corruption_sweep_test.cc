// Exhaustive latent-corruption sweep over the componentized index file
// format (anti-entropy contract): for EVERY single-byte flip and EVERY
// truncation length of a small index file, every read path must either
// return Corruption or the correct bytes — never an OK status with wrong
// data. This is the property the Scrub/Repair subsystem leans on: damage
// anywhere in an index object is detectable by reading it, so a deep audit
// that re-checks all component checksums finds all rot.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "index/component_file.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;

class CorruptionSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three components: incompressible noise (stored raw), compressible
    // text (stored LZ-compressed, so flips also hit the decompressor), and
    // a small root. Sizes keep the whole file a few hundred bytes so the
    // exhaustive sweep stays fast, but large enough that with a tiny tail
    // read nothing is verified at open.
    Random rng(7);
    Buffer noise(230);
    for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
    std::string text;
    for (int i = 0; i < 40; ++i) text += "abcabcabc row payload ";
    Buffer root(48, 0x5a);

    ComponentFileWriter writer(IndexType::kTrie, "uuid");
    ASSERT_TRUE(writer.AddComponent("leaf_noise", Slice(noise)).ok());
    ASSERT_TRUE(writer.AddComponent("leaf_text", Slice(text)).ok());
    ASSERT_TRUE(writer.AddComponent("root", Slice(root)).ok());
    ASSERT_TRUE(writer.Finish(&pristine_).ok());

    truth_.push_back(noise);
    truth_.push_back(Buffer(text.begin(), text.end()));
    truth_.push_back(root);
    names_ = {"leaf_noise", "leaf_text", "root"};
  }

  // Reads the image stored at `key` through every path: Open (with the
  // given tail size), ReadComponents over all names, and the deep
  // VerifyComponents audit. Returns true when ANY path reported damage.
  // Fails the test if any path returned OK with bytes that differ from the
  // pristine truth — the one outcome the format must never produce.
  bool Probe(InMemoryObjectStore* store, size_t tail_bytes,
             const std::string& context) {
    auto opened =
        ComponentFileReader::Open(store, "idx/sweep.index", nullptr,
                                  tail_bytes);
    if (!opened.ok()) {
      EXPECT_TRUE(opened.status().IsCorruption())
          << context << ": open failed with non-Corruption status: "
          << opened.status().ToString();
      return true;
    }
    auto& reader = opened.value();
    bool damaged = false;

    std::vector<Slice> payloads;
    Status read = reader->ReadComponents(names_, nullptr, nullptr, &payloads);
    if (!read.ok()) {
      EXPECT_TRUE(read.IsCorruption())
          << context
          << ": read failed with non-Corruption status: " << read.ToString();
      damaged = true;
    } else {
      for (size_t i = 0; i < names_.size(); ++i) {
        // The inviolable line: an OK read must return the true bytes.
        EXPECT_EQ(payloads[i].ToBuffer(), truth_[i])
            << context << ": component " << names_[i]
            << " read OK but returned WRONG bytes";
      }
    }

    std::vector<ComponentDamage> damage;
    Status verify = reader->VerifyComponents(names_, nullptr, &damage, nullptr);
    EXPECT_TRUE(verify.ok()) << context << ": " << verify.ToString();
    for (const auto& d : damage) {
      EXPECT_TRUE(d.status.IsCorruption())
          << context << ": verify blamed " << d.name
          << " with non-Corruption status: " << d.status.ToString();
    }
    if (!damage.empty()) damaged = true;
    return damaged;
  }

  SimulatedClock clock_;
  Buffer pristine_;
  std::vector<Buffer> truth_;
  std::vector<std::string> names_;
};

TEST_F(CorruptionSweepTest, PristineFileReadsCleanlyAtAnyTailSize) {
  InMemoryObjectStore store(&clock_);
  ASSERT_TRUE(store.Put("idx/sweep.index", Slice(pristine_)).ok());
  EXPECT_FALSE(Probe(&store, 64, "pristine tail=64"));
  EXPECT_FALSE(Probe(&store, 256 << 10, "pristine tail=256K"));
}

TEST_F(CorruptionSweepTest, EverySingleByteFlipIsDetected) {
  // Flip one byte at every offset. With a 64-byte tail nothing is verified
  // at open, so payload damage must be caught by the per-read checksums;
  // with the default 256K tail everything is in the tail and Open itself
  // must reject payload damage. Either way: Corruption or correct data.
  InMemoryObjectStore store(&clock_);
  for (size_t off = 0; off < pristine_.size(); ++off) {
    Buffer mutated = pristine_;
    mutated[off] ^= 0xff;
    ASSERT_TRUE(store.Put("idx/sweep.index", Slice(mutated)).ok());
    std::string ctx = "flip@" + std::to_string(off);
    bool small_tail = Probe(&store, 64, ctx + " tail=64");
    bool big_tail = Probe(&store, 256 << 10, ctx + " tail=256K");
    // Every byte of the image is covered by a checksum (magic, payloads,
    // directory, directory checksum/length): some path must notice.
    EXPECT_TRUE(small_tail || big_tail)
        << ctx << ": flip went completely undetected";
    // With everything in the tail, Open-time verification alone must
    // already refuse the file or the flip must be caught on read.
    EXPECT_TRUE(big_tail) << ctx << ": undetected with full tail read";
  }
}

TEST_F(CorruptionSweepTest, EveryTruncationLengthIsRejected) {
  // Scripted truncation model: the stored object is cut to every possible
  // prefix length. The directory lives at the tail, so no prefix can parse
  // as a valid file — Open must fail with Corruption at every length,
  // never read wrong data.
  InMemoryObjectStore store(&clock_);
  for (size_t len = 0; len < pristine_.size(); ++len) {
    Buffer cut(pristine_.begin(), pristine_.begin() + len);
    ASSERT_TRUE(store.Put("idx/sweep.index", Slice(cut)).ok());
    auto opened =
        ComponentFileReader::Open(&store, "idx/sweep.index", nullptr);
    ASSERT_FALSE(opened.ok()) << "truncate@" << len << " opened successfully";
    EXPECT_TRUE(opened.status().IsCorruption())
        << "truncate@" << len << ": " << opened.status().ToString();
  }
}

TEST_F(CorruptionSweepTest, DeepVerifyBlamesExactlyTheDamagedComponent) {
  // VerifyComponents is Scrub's workhorse: it must localize damage to the
  // right component and keep scanning past it (no fail-fast).
  InMemoryObjectStore store(&clock_);
  ASSERT_TRUE(store.Put("idx/sweep.index", Slice(pristine_)).ok());
  auto opened = ComponentFileReader::Open(&store, "idx/sweep.index", nullptr,
                                          /*tail_bytes=*/64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& reader = opened.value();

  // Damage the FIRST component's payload in the stored object after open:
  // the reader's directory is already parsed, so only the deep re-fetch can
  // notice.
  Buffer mutated = pristine_;
  mutated[6] ^= 0x01;  // Offset 6 is inside the first payload (magic is 4B).
  ASSERT_TRUE(store.Put("idx/sweep.index", Slice(mutated)).ok());

  std::vector<ComponentDamage> damage;
  uint64_t fetched = 0;
  ASSERT_TRUE(
      reader->VerifyComponents(names_, nullptr, &damage, &fetched).ok());
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0].name, "leaf_noise");
  EXPECT_TRUE(damage[0].status.IsCorruption());
  EXPECT_GT(fetched, 0u);

  // Unknown names are an InvalidArgument, not a finding.
  damage.clear();
  EXPECT_TRUE(reader->VerifyComponents({"no_such"}, nullptr, &damage, nullptr)
                  .IsInvalidArgument());
  EXPECT_TRUE(damage.empty());
}

}  // namespace
}  // namespace rottnest::index
