// Snapshot wire-format hardening (DESIGN.md §11): torn, bit-flipped, and
// version-mismatched snapshots must be rejected with CkptError — never a
// crash, never a partial apply — and the checkpoint store must fall back
// to the previous good snapshot when the newest one is damaged.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "xdp/ckpt/io.hpp"

namespace xdp::ckpt {
namespace {

namespace fs = std::filesystem;

Snapshot sampleSnapshot(std::uint64_t tag = 7) {
  Snapshot s;
  s.backend = 1;
  s.nprocs = 2;
  s.programHash = 0xFEEDu + tag;
  s.captureStep = tag;
  s.tables.push_back({std::byte{1}, std::byte{2}, std::byte{3}});
  s.tables.push_back({std::byte{4}, std::byte{5}});
  s.fabric = {std::byte{9}, std::byte{8}, std::byte{7}, std::byte{6}};
  ContImage c;
  c.engine = static_cast<std::uint8_t>(ContEngine::None);
  c.stats[2] = 41 + tag;
  c.payload = {std::byte{0xAA}, std::byte{0xBB}};
  s.conts.push_back(c);
  c.engine = static_cast<std::uint8_t>(ContEngine::Vm);
  c.finished = true;
  s.conts.push_back(c);
  return s;
}

TEST(CkptIo, EncodeDecodeRoundTrips) {
  Snapshot s = sampleSnapshot();
  Snapshot d = decodeSnapshot(encodeSnapshot(s));
  EXPECT_EQ(d.version, kSnapshotVersion);
  EXPECT_EQ(d.backend, s.backend);
  EXPECT_EQ(d.nprocs, s.nprocs);
  EXPECT_EQ(d.programHash, s.programHash);
  EXPECT_EQ(d.captureStep, s.captureStep);
  EXPECT_EQ(d.tables, s.tables);
  EXPECT_EQ(d.fabric, s.fabric);
  ASSERT_EQ(d.conts.size(), 2u);
  EXPECT_EQ(d.conts[0].engine, s.conts[0].engine);
  EXPECT_EQ(d.conts[0].stats, s.conts[0].stats);
  EXPECT_EQ(d.conts[0].payload, s.conts[0].payload);
  EXPECT_TRUE(d.conts[1].finished);
}

TEST(CkptIo, TruncationAtEveryPrefixIsRejected) {
  std::vector<std::byte> buf = encodeSnapshot(sampleSnapshot());
  // Every proper prefix must decode to a CkptError — header, mid-record,
  // mid-checksum, and missing-trailer cuts alike.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    std::vector<std::byte> torn(buf.begin(),
                                buf.begin() + static_cast<long>(n));
    EXPECT_THROW(decodeSnapshot(torn), CkptError) << "prefix " << n;
  }
}

TEST(CkptIo, EveryBitFlipIsRejected) {
  const std::vector<std::byte> good = encodeSnapshot(sampleSnapshot());
  Snapshot orig = decodeSnapshot(good);
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::vector<std::byte> bad = good;
    bad[pos] ^= std::byte{0x10};
    // Most flips must throw; any that decodes must decode to the
    // original content (a flip confined to dead padding), never to
    // silently different state.
    try {
      Snapshot d = decodeSnapshot(bad);
      EXPECT_EQ(d.tables, orig.tables) << "flip at " << pos;
      EXPECT_EQ(d.fabric, orig.fabric) << "flip at " << pos;
    } catch (const CkptError&) {
      // expected for virtually every position
    }
  }
}

TEST(CkptIo, VersionMismatchIsRejected) {
  std::vector<std::byte> buf = encodeSnapshot(sampleSnapshot());
  // Layout: 8-byte magic, then the u32 version little-endian.
  buf[8] = std::byte{static_cast<unsigned char>(kSnapshotVersion + 1)};
  EXPECT_THROW(decodeSnapshot(buf), CkptError);
}

TEST(CkptIo, BadMagicIsRejected) {
  std::vector<std::byte> buf = encodeSnapshot(sampleSnapshot());
  buf[0] = std::byte{'Y'};
  EXPECT_THROW(decodeSnapshot(buf), CkptError);
}

TEST(CkptIo, FileRoundTripAndMissingFile) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "xdp_ckpt_io_files";
  fs::create_directories(dir);
  const std::string path = (dir / "snap.xdpckpt").string();
  std::vector<std::byte> buf = encodeSnapshot(sampleSnapshot());
  saveSnapshotFile(path, buf);
  EXPECT_EQ(loadSnapshotFile(path), buf);
  EXPECT_THROW(loadSnapshotFile((dir / "absent.xdpckpt").string()),
               CkptError);
  fs::remove_all(dir);
}

TEST(CkptStore, ServesNewestGoodSnapshot) {
  CheckpointStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_THROW(store.loadLatestGood(), CkptError);
  store.add(sampleSnapshot(1));
  store.add(sampleSnapshot(2));
  store.add(sampleSnapshot(3));  // evicts 1 (2-deep ring)
  Snapshot got = store.loadLatestGood();
  EXPECT_EQ(got.captureStep, 3u);
  EXPECT_EQ(store.stats().snapshots, 3u);
  EXPECT_GT(store.stats().lastBytes, 0u);
}

TEST(CkptStore, FallsBackToPreviousGoodSnapshotOnDiskCorruption) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "xdp_ckpt_store_fallback";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    CheckpointStore store(dir.string());
    store.add(sampleSnapshot(1));
    store.add(sampleSnapshot(2));
  }
  // Flip a byte in the newest on-disk snapshot (highest sequence).
  fs::path newest;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (newest.empty() || e.path().filename() > newest.filename())
      newest = e.path();
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    char c = 0;
    f.seekg(24);
    f.get(c);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(24);
    f.put(c);
  }
  // Adoption verifies each file: the torn newest one is skipped (and
  // counted as a fallback), leaving the previous good snapshot in charge.
  CheckpointStore reopened(dir.string());
  EXPECT_EQ(reopened.adoptFromDir(), 1);
  Snapshot got = reopened.loadLatestGood();
  EXPECT_EQ(got.captureStep, 1u) << "should fall back past the torn file";
  EXPECT_GE(reopened.stats().fallbacks, 1u);
  fs::remove_all(dir);
}

TEST(CkptStore, AllSnapshotsCorruptRaisesCkptError) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "xdp_ckpt_store_allbad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    CheckpointStore store(dir.string());
    store.add(sampleSnapshot(1));
    store.add(sampleSnapshot(2));
  }
  for (const auto& e : fs::directory_iterator(dir)) {
    std::fstream f(e.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('\x7f');
  }
  CheckpointStore reopened(dir.string());
  reopened.adoptFromDir();
  EXPECT_THROW(reopened.loadLatestGood(), CkptError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xdp::ckpt
