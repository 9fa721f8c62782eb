#include "index/component_file.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "objectstore/object_store.h"

namespace rottnest::index {
namespace {

using objectstore::InMemoryObjectStore;
using objectstore::IoTrace;

Buffer Bytes(const std::string& s) { return Buffer(s.begin(), s.end()); }

class ComponentFileTest : public ::testing::Test {
 protected:
  SimulatedClock clock_;
  InMemoryObjectStore store_{&clock_};
};

TEST_F(ComponentFileTest, WriteReadRoundTrip) {
  ComponentFileWriter writer(IndexType::kTrie, "uuid");
  ASSERT_TRUE(writer.AddComponent("leaf.0", Slice(Bytes("leafdata0"))).ok());
  ASSERT_TRUE(writer.AddComponent("leaf.1", Slice(Bytes("leafdata1"))).ok());
  ASSERT_TRUE(writer.AddComponent("root", Slice(Bytes("rootdata"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("idx/a.index", Slice(file)).ok());

  auto reader_r = ComponentFileReader::Open(&store_, "idx/a.index", nullptr);
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  auto& reader = *reader_r.value();
  EXPECT_EQ(reader.type(), IndexType::kTrie);
  EXPECT_EQ(reader.column(), "uuid");
  EXPECT_TRUE(reader.HasComponent("leaf.0"));
  EXPECT_TRUE(reader.HasComponent("root"));
  EXPECT_FALSE(reader.HasComponent("ghost"));

  Slice payload;
  ASSERT_TRUE(reader.ReadComponent("leaf.1", nullptr, nullptr, &payload).ok());
  EXPECT_EQ(payload.ToBuffer(), Bytes("leafdata1"));
  ASSERT_TRUE(reader.ReadComponent("root", nullptr, nullptr, &payload).ok());
  EXPECT_EQ(payload.ToBuffer(), Bytes("rootdata"));
}

TEST_F(ComponentFileTest, DuplicateComponentRejected) {
  ComponentFileWriter writer(IndexType::kFm, "body");
  ASSERT_TRUE(writer.AddComponent("x", Slice(Bytes("a"))).ok());
  EXPECT_TRUE(writer.AddComponent("x", Slice(Bytes("b"))).IsInvalidArgument());
}

TEST_F(ComponentFileTest, CompressibleComponentsShrink) {
  ComponentFileWriter writer(IndexType::kFm, "body");
  Buffer big(1 << 20, 0x61);  // 1MB of 'a'.
  ASSERT_TRUE(writer.AddComponent("x", Slice(big)).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  EXPECT_LT(file.size(), big.size() / 50);

  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());
  auto reader = ComponentFileReader::Open(&store_, "k", nullptr).MoveValue();
  Slice payload;
  ASSERT_TRUE(reader->ReadComponent("x", nullptr, nullptr, &payload).ok());
  EXPECT_EQ(payload.ToBuffer(), big);
}

TEST_F(ComponentFileTest, TailComponentsCostNoExtraIo) {
  // A component written last is served from the tail read: Open + read of
  // the last component = exactly 1 GET.
  ComponentFileWriter writer(IndexType::kTrie, "uuid");
  Random rng(7);
  Buffer big(512 << 10);
  for (auto& b : big) b = static_cast<uint8_t>(rng.Next());  // incompressible
  ASSERT_TRUE(writer.AddComponent("bulk", Slice(big)).ok());
  ASSERT_TRUE(writer.AddComponent("root", Slice(Bytes("tiny root"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());

  IoTrace trace;
  auto reader = ComponentFileReader::Open(&store_, "k", &trace).MoveValue();
  Slice payload;
  ASSERT_TRUE(reader->ReadComponent("root", nullptr, &trace, &payload).ok());
  EXPECT_EQ(payload.ToBuffer(), Bytes("tiny root"));
  EXPECT_EQ(trace.total_gets(), 1u);  // Tail read only.
  EXPECT_EQ(trace.depth(), 1u);

  // The bulk component needs one more dependent round.
  ASSERT_TRUE(reader->ReadComponent("bulk", nullptr, &trace, &payload).ok());
  EXPECT_EQ(payload.ToBuffer(), big);
  EXPECT_EQ(trace.total_gets(), 2u);
  EXPECT_EQ(trace.depth(), 2u);
}

TEST_F(ComponentFileTest, BatchReadIsOneRound) {
  ComponentFileWriter writer(IndexType::kIvfPq, "vec");
  Random rng(9);
  for (int i = 0; i < 16; ++i) {
    Buffer data(32 << 10);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(
        writer.AddComponent("list." + std::to_string(i), Slice(data)).ok());
  }
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());

  IoTrace trace;
  ThreadPool pool(4);
  auto reader = ComponentFileReader::Open(&store_, "k", &trace).MoveValue();
  size_t depth_after_open = trace.depth();
  std::vector<Slice> results;
  ASSERT_TRUE(reader
                  ->ReadComponents({"list.3", "list.7", "list.11"}, &pool,
                                   &trace, &results)
                  .ok());
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(trace.depth(), depth_after_open + 1);  // One round for all three.
}

TEST_F(ComponentFileTest, CachedComponentsAreFree) {
  ComponentFileWriter writer(IndexType::kTrie, "u");
  Random rng(3);
  Buffer data(300 << 10);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(writer.AddComponent("big", Slice(data)).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());

  auto reader = ComponentFileReader::Open(&store_, "k", nullptr).MoveValue();
  Slice payload;
  ASSERT_TRUE(reader->ReadComponent("big", nullptr, nullptr, &payload).ok());
  uint64_t gets = store_.stats().gets.load();
  ASSERT_TRUE(reader->ReadComponent("big", nullptr, nullptr, &payload).ok());
  EXPECT_EQ(store_.stats().gets.load(), gets);  // Second read cached.
}

TEST_F(ComponentFileTest, MissingComponentIsNotFound) {
  ComponentFileWriter writer(IndexType::kTrie, "u");
  ASSERT_TRUE(writer.AddComponent("a", Slice(Bytes("x"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());
  auto reader = ComponentFileReader::Open(&store_, "k", nullptr).MoveValue();
  Slice payload;
  EXPECT_TRUE(
      reader->ReadComponent("nope", nullptr, nullptr, &payload).IsNotFound());
}

TEST_F(ComponentFileTest, CorruptFileRejected) {
  Buffer junk(64, 0x11);
  ASSERT_TRUE(store_.Put("junk", Slice(junk)).ok());
  EXPECT_TRUE(
      ComponentFileReader::Open(&store_, "junk", nullptr).status()
          .IsCorruption());
}

TEST_F(ComponentFileTest, TinyTailReadStillWorks) {
  // Force the directory to exceed the tail read so the two-step open path
  // runs.
  ComponentFileWriter writer(IndexType::kTrie, "u");
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(writer
                    .AddComponent("component-with-a-long-name-" +
                                      std::to_string(i),
                                  Slice(Bytes("payload" + std::to_string(i))))
                    .ok());
  }
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());
  auto reader_r =
      ComponentFileReader::Open(&store_, "k", nullptr, /*tail_bytes=*/64);
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  Slice payload;
  ASSERT_TRUE(reader_r.value()
                  ->ReadComponent("component-with-a-long-name-137", nullptr,
                                  nullptr, &payload)
                  .ok());
  EXPECT_EQ(payload.ToBuffer(), Bytes("payload137"));
}

TEST_F(ComponentFileTest, BitFlipInPayloadIsCorruption) {
  // A single flipped bit anywhere in a component payload must surface as
  // Corruption — at open for tail-cached components, at read for fetched
  // ones — never as silently wrong data.
  ComponentFileWriter writer(IndexType::kTrie, "u");
  Random rng(11);
  Buffer bulk(400 << 10);  // Incompressible, larger than the 256KB tail.
  for (auto& b : bulk) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(writer.AddComponent("bulk", Slice(bulk)).ok());
  ASSERT_TRUE(writer.AddComponent("root", Slice(Bytes("root payload"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());

  // Flip a bit early in the file: inside `bulk`, outside the tail read.
  Buffer corrupt = file;
  corrupt[100] ^= 0x01;
  ASSERT_TRUE(store_.Put("k", Slice(corrupt)).ok());
  auto reader_r = ComponentFileReader::Open(&store_, "k", nullptr);
  ASSERT_TRUE(reader_r.ok()) << reader_r.status().ToString();
  Slice payload;
  // `root` is tail-cached and intact.
  ASSERT_TRUE(
      reader_r.value()->ReadComponent("root", nullptr, nullptr, &payload).ok());
  // `bulk` is fetched — and fails its checksum.
  EXPECT_TRUE(reader_r.value()
                  ->ReadComponent("bulk", nullptr, nullptr, &payload)
                  .IsCorruption());

  // Flip a bit in the tail instead: open itself fails (either the flipped
  // byte hits a tail-cached payload or the directory).
  corrupt = file;
  corrupt[file.size() - 40] ^= 0x01;
  ASSERT_TRUE(store_.Put("k2", Slice(corrupt)).ok());
  EXPECT_TRUE(ComponentFileReader::Open(&store_, "k2", nullptr)
                  .status()
                  .IsCorruption());
}

TEST_F(ComponentFileTest, FlippedTailComponentFailsOpenNamingIt) {
  // Decoding waits for the first read, but the checksum of every
  // tail-resident component is still checked at Open: a flipped byte in
  // one fails Open with a Corruption that names it.
  ComponentFileWriter writer(IndexType::kTrie, "u");
  Random rng(13);
  Buffer bulk(400 << 10);  // Incompressible, larger than the 256KB tail.
  for (auto& b : bulk) b = static_cast<uint8_t>(rng.Next());
  ASSERT_TRUE(writer.AddComponent("bulk", Slice(bulk)).ok());
  ASSERT_TRUE(writer.AddComponent("leaf", Slice(Bytes("leaf payload"))).ok());
  ASSERT_TRUE(writer.AddComponent("root", Slice(Bytes("root payload"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());

  // Both small payloads are stored raw (LZ cannot shrink them), right
  // after the 4-byte magic and `bulk`.
  Buffer corrupt = file;
  corrupt[4 + bulk.size() + 2] ^= 0x01;  // Inside "leaf payload".
  ASSERT_TRUE(store_.Put("k", Slice(corrupt)).ok());
  auto opened = ComponentFileReader::Open(&store_, "k", nullptr);
  ASSERT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find("leaf"), std::string::npos)
      << opened.status().ToString();
}

TEST_F(ComponentFileTest, ViewsStayByteEqualAfterLaterReads) {
  // A view points into the reader's decoded cache; later reads — fetched
  // or tail-resident, single or batched, repeated names included — must
  // not move or change the bytes it shows.
  ComponentFileWriter writer(IndexType::kIvfPq, "vec");
  Random rng(17);
  std::vector<Buffer> truth;
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    Buffer data((i % 3 == 0 ? 40 : 4) << 10);
    for (auto& b : data) b = static_cast<uint8_t>('a' + rng.Uniform(4));
    names.push_back("c." + std::to_string(i));
    ASSERT_TRUE(writer.AddComponent(names.back(), Slice(data)).ok());
    truth.push_back(std::move(data));
  }
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());

  ThreadPool pool(2);
  auto reader = ComponentFileReader::Open(&store_, "k", nullptr,
                                          /*tail_bytes=*/32 << 10)
                    .MoveValue();
  size_t in_tail = 0;
  for (const ComponentInfo& c : reader->Components()) {
    in_tail += c.verified_at_open ? 1 : 0;
  }
  ASSERT_GT(in_tail, 0u);            // Some decode from the kept tail...
  ASSERT_LT(in_tail, names.size());  // ...and some are fetched.
  std::vector<Slice> first;
  ASSERT_TRUE(
      reader->ReadComponents({"c.0", "c.11"}, &pool, nullptr, &first).ok());
  for (size_t i = 1; i < names.size(); ++i) {
    Slice one;
    ASSERT_TRUE(reader->ReadComponent(names[i], &pool, nullptr, &one).ok());
    EXPECT_EQ(one.ToBuffer(), truth[i]);
  }
  std::vector<Slice> again;
  ASSERT_TRUE(
      reader->ReadComponents(names, &pool, nullptr, &again).ok());
  ASSERT_TRUE(reader->ReadComponents({"c.3", "c.3"}, &pool, nullptr, &again)
                  .ok());
  EXPECT_EQ(first[0].ToBuffer(), truth[0]);
  EXPECT_EQ(first[1].ToBuffer(), truth[11]);
  EXPECT_EQ(again[0].data(), again[1].data());  // One decoded copy.
}

TEST_F(ComponentFileTest, ReadingOneComponentDecodesOnlyThatComponent) {
  // Open decodes nothing, even for components its tail read covers; the
  // first read of a component decodes exactly that one, with no IO.
  ComponentFileWriter writer(IndexType::kFm, "body");
  std::vector<std::string> names = {"a", "b", "c", "d"};
  for (size_t i = 0; i < names.size(); ++i) {
    Buffer data(1000 * (i + 1), static_cast<uint8_t>('a' + i));
    ASSERT_TRUE(writer.AddComponent(names[i], Slice(data)).ok());
  }
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());

  IoTrace trace;
  auto reader = ComponentFileReader::Open(&store_, "k", &trace).MoveValue();
  for (const ComponentInfo& c : reader->Components()) {
    EXPECT_TRUE(c.verified_at_open) << c.name;
  }
  EXPECT_EQ(reader->decoded_bytes(), 0u);
  Slice c;
  ASSERT_TRUE(reader->ReadComponent("c", nullptr, &trace, &c).ok());
  EXPECT_EQ(c.ToBuffer(), Buffer(3000, 'c'));
  EXPECT_EQ(reader->decoded_bytes(), 3000u);
  EXPECT_EQ(trace.total_gets(), 1u);  // The tail read only.

  reader->Evict("c");
  EXPECT_EQ(reader->decoded_bytes(), 0u);
  ASSERT_TRUE(reader->ReadComponent("c", nullptr, &trace, &c).ok());
  EXPECT_EQ(c.ToBuffer(), Buffer(3000, 'c'));
  EXPECT_EQ(trace.total_gets(), 1u);  // Re-decoded from the kept tail.
}

TEST_F(ComponentFileTest, TruncatedFileIsRejected) {
  ComponentFileWriter writer(IndexType::kTrie, "u");
  ASSERT_TRUE(writer.AddComponent("a", Slice(Bytes("payload-a"))).ok());
  ASSERT_TRUE(writer.AddComponent("b", Slice(Bytes("payload-b"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  // Every truncation point must fail Open cleanly — bad magic, short
  // directory, or checksum mismatch — never parse garbage.
  for (size_t keep : {file.size() - 1, file.size() - 5, file.size() / 2,
                      size_t{21}, size_t{1}}) {
    Buffer cut(file.begin(), file.begin() + keep);
    ASSERT_TRUE(store_.Put("t", Slice(cut)).ok());
    EXPECT_FALSE(ComponentFileReader::Open(&store_, "t", nullptr).ok())
        << "kept " << keep << " of " << file.size();
  }
}

TEST_F(ComponentFileTest, DirectoryChecksumCoversEntries) {
  // Corrupting the directory region itself (not a payload) is detected by
  // the directory checksum before any entry is trusted.
  ComponentFileWriter writer(IndexType::kFm, "body");
  ASSERT_TRUE(writer.AddComponent("x", Slice(Bytes("data"))).ok());
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  // The directory sits just before the 16-byte checksum+length footer and
  // the 4-byte magic; flip a byte 22 from the end (inside the directory).
  Buffer corrupt = file;
  corrupt[file.size() - 22] ^= 0xFF;
  ASSERT_TRUE(store_.Put("k", Slice(corrupt)).ok());
  EXPECT_TRUE(ComponentFileReader::Open(&store_, "k", nullptr)
                  .status()
                  .IsCorruption());
}

TEST_F(ComponentFileTest, EmptyIndexFileRoundTrips) {
  ComponentFileWriter writer(IndexType::kFm, "body");
  Buffer file;
  ASSERT_TRUE(writer.Finish(&file).ok());
  ASSERT_TRUE(store_.Put("k", Slice(file)).ok());
  auto reader = ComponentFileReader::Open(&store_, "k", nullptr).MoveValue();
  EXPECT_TRUE(reader->ComponentNames().empty());
}

}  // namespace
}  // namespace rottnest::index
