// Tests for checkpointing (nn/serialize) and trace recording/export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>

#include "kv/message.hpp"
#include "models/zoo.hpp"
#include "nn/serialize.hpp"
#include "runtime/engine.hpp"
#include "sync/bsp.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Checkpoint, RoundTripRestoresParams) {
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  std::vector<float> original(flat.total_params());
  flat.gather_params(original);

  TempFile file(temp_path("osp_ckpt_roundtrip.bin"));
  nn::save_checkpoint(flat, file.path);

  // Scramble, then restore.
  std::vector<float> scrambled(flat.total_params(), -7.0f);
  flat.scatter_params(scrambled);
  nn::load_checkpoint(flat, file.path);
  std::vector<float> restored(flat.total_params());
  flat.gather_params(restored);
  EXPECT_EQ(restored, original);
}

TEST(Checkpoint, RejectsWrongArchitecture) {
  const auto spec = models::tiny_mlp();
  nn::Sequential a = spec.build_model(1);
  nn::FlatModel flat_a(a);
  TempFile file(temp_path("osp_ckpt_arch.bin"));
  nn::save_checkpoint(flat_a, file.path);

  nn::Sequential b = models::resnet50_cifar10().build_model(1);
  nn::FlatModel flat_b(b);
  EXPECT_THROW(nn::load_checkpoint(flat_b, file.path), util::CheckError);
}

TEST(Checkpoint, RejectsGarbageFile) {
  TempFile file(temp_path("osp_ckpt_garbage.bin"));
  {
    std::ofstream out(file.path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  EXPECT_THROW(nn::load_checkpoint(flat, file.path), util::CheckError);
}

TEST(Checkpoint, RejectsTruncatedFile) {
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  TempFile file(temp_path("osp_ckpt_trunc.bin"));
  nn::save_checkpoint(flat, file.path);
  // Truncate the float payload.
  const auto full = std::filesystem::file_size(file.path);
  std::filesystem::resize_file(file.path, full - 64);
  EXPECT_THROW(nn::load_checkpoint(flat, file.path), util::CheckError);
}

TEST(Checkpoint, RejectsBitCorruption) {
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  TempFile file(temp_path("osp_ckpt_bitflip.bin"));
  nn::save_checkpoint(flat, file.path);
  // Flip a single bit inside the parameter payload; without the CRC this
  // would load "successfully" with one silently-corrupted weight.
  std::fstream io(file.path, std::ios::binary | std::ios::in | std::ios::out);
  const auto size = std::filesystem::file_size(file.path);
  const auto pos = static_cast<std::streamoff>(size / 2);
  char byte = 0;
  io.seekg(pos);
  io.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x04);
  io.seekp(pos);
  io.write(&byte, 1);
  io.close();
  EXPECT_THROW(nn::load_checkpoint(flat, file.path), util::CheckError);
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  TempFile file(temp_path("osp_ckpt_trailing.bin"));
  nn::save_checkpoint(flat, file.path);
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::app);
    out << "sneaky extra bytes";
  }
  EXPECT_THROW(nn::load_checkpoint(flat, file.path), util::CheckError);
}

TEST(Checkpoint, MissingFileThrows) {
  const auto spec = models::tiny_mlp();
  nn::Sequential model = spec.build_model(1);
  nn::FlatModel flat(model);
  EXPECT_THROW(nn::load_checkpoint(flat, temp_path("osp_no_such.bin")),
               util::CheckError);
}

TEST(Trace, EngineRecordsSpansWhenEnabled) {
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 1;
  cfg.record_trace = true;
  sync::BspSync sync;
  runtime::Engine engine(spec, cfg, sync);
  (void)engine.run();
  const auto& trace = engine.trace();
  ASSERT_FALSE(trace.empty());
  // 2 workers × 16 iterations × 2 phases.
  EXPECT_EQ(trace.spans().size(), 2u * 16u * 2u);
  for (const auto& span : trace.spans()) {
    EXPECT_LE(span.begin_s, span.end_s);
    EXPECT_LT(span.worker, 2u);
  }
  EXPECT_GT(trace.blocking_sync_fraction(), 0.0);
  EXPECT_LT(trace.blocking_sync_fraction(), 1.0);
}

TEST(Trace, DisabledByDefault) {
  const auto spec = models::tiny_mlp();
  runtime::EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_epochs = 1;
  sync::BspSync sync;
  runtime::Engine engine(spec, cfg, sync);
  (void)engine.run();
  EXPECT_TRUE(engine.trace().empty());
}

TEST(Trace, CsvExport) {
  runtime::TraceRecorder trace;
  trace.add({0.0, 1.0, 0, 0, runtime::TracePhase::kCompute});
  trace.add({1.0, 1.5, 0, 0, runtime::TracePhase::kSync});
  TempFile file(temp_path("osp_trace.csv"));
  trace.write_csv(file.path);
  std::ifstream in(file.path);
  std::string header, line1, line2;
  std::getline(in, header);
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(header, "worker,iteration,phase,begin_s,end_s");
  EXPECT_NE(line1.find("compute"), std::string::npos);
  EXPECT_NE(line2.find("sync"), std::string::npos);
}

TEST(Trace, ChromeJsonExportIsWellFormedish) {
  runtime::TraceRecorder trace;
  trace.add({0.0, 1.0, 3, 7, runtime::TracePhase::kCompute});
  TempFile file(temp_path("osp_trace.json"));
  trace.write_chrome_json(file.path);
  std::ifstream in(file.path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(content.find("\"iteration\": 7"), std::string::npos);
}

TEST(Trace, SyncFractionMath) {
  runtime::TraceRecorder trace;
  trace.add({0.0, 3.0, 0, 0, runtime::TracePhase::kCompute});
  trace.add({3.0, 4.0, 0, 0, runtime::TracePhase::kSync});
  // The old sync/(sync+compute) value survives under its explicit name.
  EXPECT_DOUBLE_EQ(trace.blocking_sync_fraction(), 0.25);
  runtime::TraceRecorder empty;
  EXPECT_DOUBLE_EQ(empty.blocking_sync_fraction(), 0.0);

  // RS counts as blocking sync; ICS and downtime do not.
  trace.add({4.0, 5.0, 0, 1, runtime::TracePhase::kRs});
  trace.add({4.0, 6.0, 0, 1, runtime::TracePhase::kIcs});
  trace.add({6.0, 7.0, 0, 1, runtime::TracePhase::kDowntime});
  EXPECT_DOUBLE_EQ(trace.blocking_sync_fraction(), 2.0 / 5.0);

  // phase_shares covers ALL phases (the old sync_fraction ignored
  // downtime) and sums to 1.
  const auto shares = trace.phase_shares();
  EXPECT_DOUBLE_EQ(shares.at(runtime::TracePhase::kCompute), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(shares.at(runtime::TracePhase::kSync), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(shares.at(runtime::TracePhase::kRs), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(shares.at(runtime::TracePhase::kIcs), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(shares.at(runtime::TracePhase::kDowntime), 1.0 / 8.0);
  double sum = 0.0;
  for (const auto& [phase, share] : shares) sum += share;
  EXPECT_DOUBLE_EQ(sum, 1.0);
  EXPECT_TRUE(empty.phase_shares().empty());
}

// ------------------------------------------------- KV wire format fuzzing
//
// The OSPKVMSG envelope must reject every corruption with a CheckError —
// truncation at any prefix, trailing bytes, any single-bit flip, version
// skew, structural nonsense — and must never mis-decode (a corrupt buffer
// either throws or, impossibly, reproduces the original message; silent
// acceptance of different content is the failure mode these tests hunt).

kv::KvMessage sample_kv_message() {
  kv::KvMessage m;
  m.begin(kv::Op::kPush, 3, 17, {0, 4});
  m.keys = {0, 1, 2, 3};
  m.versions = {5, 6, 7, 8};
  m.set_values(std::vector<float>{0.5f, -1.25f, 0.0f, 3.75f, 0.0f, 2.0f},
               24.0);
  m.meta_bytes = 8.0;
  return m;
}

TEST(KvWire, ValidRoundTripSanity) {
  const kv::KvMessage m = sample_kv_message();
  const auto d = kv::deserialize(kv::serialize(m));
  EXPECT_EQ(d.values, m.values);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.versions, m.versions);
  EXPECT_DOUBLE_EQ(d.wire_bytes(), m.wire_bytes());
}

TEST(KvWire, EveryTruncationRejected) {
  const auto bytes = kv::serialize(sample_kv_message());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)kv::deserialize(std::span(bytes.data(), len)),
        util::CheckError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(KvWire, TrailingBytesRejected) {
  auto bytes = kv::serialize(sample_kv_message());
  bytes.push_back(0x00);
  EXPECT_THROW((void)kv::deserialize(bytes), util::CheckError);
  bytes.pop_back();
  bytes.push_back(0xff);
  EXPECT_THROW((void)kv::deserialize(bytes), util::CheckError);
}

TEST(KvWire, EverySingleBitFlipRejected) {
  // Magic flips fail the magic check, version flips the version check,
  // length flips truncate, payload and CRC flips fail the CRC — there is
  // no byte whose corruption goes unnoticed.
  const auto clean = kv::serialize(sample_kv_message());
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = clean;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)kv::deserialize(corrupt), util::CheckError)
          << "flip of bit " << bit << " in byte " << byte << " decoded";
    }
  }
}

TEST(KvWire, VersionSkewRejected) {
  // The u32 version sits right after the 8-byte magic and outside the
  // CRC; a writer from the future must be rejected up front.
  auto bytes = kv::serialize(sample_kv_message());
  bytes[8] = static_cast<std::uint8_t>(kv::kMessageVersion + 1);
  EXPECT_THROW((void)kv::deserialize(bytes), util::CheckError);
}

TEST(KvWire, SerializeRejectsSupportOutsideDenseValues) {
  // Compacting on the fly reads values[i] for every support index i, so an
  // index past the dense values must be refused, not read.
  kv::KvMessage m = sample_kv_message();
  m.sparse = true;
  m.indices = {2, 99};
  EXPECT_THROW((void)kv::serialize(m), util::CheckError);
}

TEST(KvWire, StructurallyInvalidPayloadsRejected) {
  // serialize() writes whatever it is given; deserialize() must catch
  // the structural lies even when the envelope (magic/CRC) is intact.
  {
    kv::KvMessage m = sample_kv_message();
    m.range = {9, 2};  // inverted
    EXPECT_THROW((void)kv::deserialize(kv::serialize(m)), util::CheckError);
  }
  {
    kv::KvMessage m = sample_kv_message();
    m.versions = {1, 2};  // matches neither keys nor range arity
    EXPECT_THROW((void)kv::deserialize(kv::serialize(m)), util::CheckError);
  }
  {
    // Already compact, so serialize() ships the bad index unexamined.
    kv::KvMessage m = sample_kv_message();
    m.sparse = true;
    m.compact = true;
    m.indices = {2, 99};  // out of bounds of dense_numel
    m.values = {0.0f, 2.0f};
    EXPECT_THROW((void)kv::deserialize(kv::serialize(m)), util::CheckError);
  }
  {
    kv::KvMessage m = sample_kv_message();
    m.values.resize(3);  // dense count no longer matches dense_numel
    EXPECT_THROW((void)kv::deserialize(kv::serialize(m)), util::CheckError);
  }
}

}  // namespace
}  // namespace osp
