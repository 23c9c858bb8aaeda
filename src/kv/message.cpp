#include "kv/message.hpp"

#include <cstring>

#include "util/serde.hpp"

namespace osp::kv {

namespace {
using util::serde::Reader;
using util::serde::Writer;

void write_payload(const KvMessage& m, Writer& w) {
  w.u8(static_cast<std::uint8_t>(m.op));
  w.u32(m.sender);
  w.u64(m.round);
  w.u64(m.range.begin);
  w.u64(m.range.end);
  w.u64_vec(m.keys);
  w.u64_vec(m.versions);
  w.u64(m.key_sig);
  w.boolean(m.sparse);
  w.u8(m.quant_bits);
  w.f32(m.quant_scale);
  w.u64(m.dense_numel);
  w.u64(m.indices.size());
  for (std::uint32_t i : m.indices) w.u32(i);
  w.bytes(m.block_mask);
  if (m.sparse && !m.compact) {
    // Compact on the fly: only the support travels.
    w.u64(m.indices.size());
    for (std::uint32_t i : m.indices) {
      OSP_CHECK(i < m.values.size(), "KV message: sparse index out of bounds");
      w.f32(m.values[i]);
    }
  } else {
    w.f32_vec(m.values);
  }
  w.f64(m.dense_value_bytes);
  w.f64(m.value_bytes);
  w.f64(m.index_bytes);
  w.f64(m.meta_bytes);
}

KvMessage read_payload(Reader& r) {
  KvMessage m;
  const std::uint8_t op = r.u8();
  OSP_CHECK(op <= static_cast<std::uint8_t>(Op::kPullResponse),
            "KV message: unknown op");
  m.op = static_cast<Op>(op);
  m.sender = r.u32();
  m.round = r.u64();
  m.range.begin = r.u64();
  m.range.end = r.u64();
  OSP_CHECK(m.range.begin <= m.range.end, "KV message: inverted key range");
  m.keys = r.u64_vec();
  m.versions = r.u64_vec();
  OSP_CHECK(m.versions.empty() || m.versions.size() == m.keys.size() ||
                m.versions.size() == m.range.size(),
            "KV message: version arity mismatch");
  m.key_sig = r.u64();
  m.sparse = r.boolean();
  m.quant_bits = r.u8();
  m.quant_scale = r.f32();
  m.dense_numel = r.u64();
  const std::uint64_t n_idx = r.u64();
  OSP_CHECK(n_idx * 4 <= r.remaining(), "KV message: truncated index list");
  m.indices.resize(n_idx);
  for (std::uint64_t i = 0; i < n_idx; ++i) {
    m.indices[i] = r.u32();
    OSP_CHECK(m.indices[i] < m.dense_numel,
              "KV message: sparse index out of bounds");
  }
  m.block_mask = r.bytes();
  m.values = r.f32_vec();
  if (m.sparse) {
    OSP_CHECK(m.values.size() == m.indices.size(),
              "KV message: sparse support arity mismatch");
    m.compact = true;
  } else {
    OSP_CHECK(m.values.empty() || m.values.size() == m.dense_numel,
              "KV message: dense value count mismatch");
  }
  m.dense_value_bytes = r.f64();
  m.value_bytes = r.f64();
  m.index_bytes = r.f64();
  m.meta_bytes = r.f64();
  return m;
}
}  // namespace

std::vector<std::uint8_t> serialize(const KvMessage& m) {
  Writer payload;
  write_payload(m, payload);
  Writer env;
  for (const char* c = kMessageMagic; *c != '\0'; ++c) {
    env.u8(static_cast<std::uint8_t>(*c));
  }
  env.u32(kMessageVersion);
  env.bytes(payload.data());  // u64 length prefix + payload
  env.u32(util::serde::crc32(payload.data()));
  return env.take();
}

KvMessage deserialize(std::span<const std::uint8_t> data) {
  Reader env(data);
  char magic[9] = {};
  for (int i = 0; i < 8; ++i) magic[i] = static_cast<char>(env.u8());
  OSP_CHECK(std::memcmp(magic, kMessageMagic, 8) == 0,
            "KV message: bad magic");
  const std::uint32_t version = env.u32();
  OSP_CHECK(version == kMessageVersion,
            "KV message: unsupported version");
  const std::vector<std::uint8_t> payload = env.bytes();
  const std::uint32_t crc = env.u32();
  env.expect_done();
  OSP_CHECK(crc == util::serde::crc32(payload), "KV message: CRC mismatch");
  Reader r(payload);
  KvMessage m = read_payload(r);
  r.expect_done();
  return m;
}

}  // namespace osp::kv
