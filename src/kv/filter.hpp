// Composable message filters (dmlc/parameter_server-style).
//
// A MessageFilter transforms a KvMessage on its way out (`encode`) and
// back (`decode`); a FilterPipeline applies its stages in order on
// encode and in *reverse* order on decode — the symmetry rule that makes
// stages composable: each decode sees exactly the representation its
// encode produced, with every later stage already undone.
//
// Two invariants every stage must keep:
//  * Lossless stages (key-cache) restore the encode-input values
//    bit-for-bit on decode. Lossy stages (top-k, int8, GIB) are
//    projections: encode replaces `values` with the receiver's view, and
//    decode of a deserialized message reproduces that view exactly, so
//    lossiness happens once, on encode, never on the wire.
//  * The simulated byte accounting (value/index/meta bytes) moves in
//    lockstep with the payload transform, so telemetry wire bytes always
//    match the composed pipeline.
//
// Stages no-op gracefully on representations they do not apply to
// (key-cache skips range-addressed messages; value transforms skip empty
// payloads but still update the accounting), so any composition order is
// safe even if not always byte-optimal.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kv/compress.hpp"
#include "kv/message.hpp"
#include "util/rng.hpp"

namespace osp::util::serde {
class Writer;
class Reader;
}  // namespace osp::util::serde

namespace osp::kv {

class MessageFilter {
 public:
  virtual ~MessageFilter() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void encode(KvMessage& m) = 0;
  virtual void decode(KvMessage& m) = 0;
  /// Filter-local training state (RNG streams, caches worth keeping).
  virtual void save_state(util::serde::Writer& w) const;
  virtual void load_state(util::serde::Reader& r);
};

/// Ordered stage list; encode applies front-to-back, decode back-to-front.
class FilterPipeline {
 public:
  MessageFilter& add(std::unique_ptr<MessageFilter> f);

  void encode(KvMessage& m);
  void decode(KvMessage& m);

  [[nodiscard]] std::size_t size() const { return stages_.size(); }
  [[nodiscard]] MessageFilter& stage(std::size_t i) { return *stages_.at(i); }
  /// "a∘b∘c" in encode order.
  [[nodiscard]] std::string name() const;

  void save_state(util::serde::Writer& w) const;
  void load_state(util::serde::Reader& r);

 private:
  std::vector<std::unique_ptr<MessageFilter>> stages_;
};

/// Key-caching (dmlc KVPS "key cache"): repeated key lists are replaced
/// by an 8-byte FNV signature once the receiver has seen them. Lossless.
class KeyCacheFilter : public MessageFilter {
 public:
  [[nodiscard]] std::string name() const override { return "keycache"; }
  void encode(KvMessage& m) override;
  void decode(KvMessage& m) override;

 private:
  std::map<std::uint64_t, std::vector<Key>> sent_;  ///< sender-side cache
  std::map<std::uint64_t, std::vector<Key>> recv_;  ///< receiver-side cache
};

/// Symmetric int8 quantization as a stage: values become the dequantized
/// receiver view (noise enters training numerics exactly once), value
/// bytes shrink 4x, one fp32 scale rides in the meta channel.
class QuantizeInt8Filter : public MessageFilter {
 public:
  [[nodiscard]] std::string name() const override { return "q8"; }
  void encode(KvMessage& m) override;
  void decode(KvMessage& m) override;
};

/// Top-k / random-k sparsification as a stage. Encode keeps the values
/// dense (zeros at dropped positions) and records the support in
/// `indices`; serialization compacts, decode scatters back. Accounting:
/// kept elements travel as fp32 value + u32 index (4 bytes each side),
/// replacing the dense value bytes — so a quantizer composes *after*
/// this stage. The selection RNG is filter state and checkpoints with
/// the model.
class TopKFilter : public MessageFilter {
 public:
  TopKFilter(CompressionMode mode, double keep_fraction, std::uint64_t seed);

  [[nodiscard]] std::string name() const override {
    return mode_ == CompressionMode::TopK ? "topk" : "randk";
  }
  void encode(KvMessage& m) override;
  void decode(KvMessage& m) override;
  void save_state(util::serde::Writer& w) const override;
  void load_state(util::serde::Reader& r) override;

  [[nodiscard]] std::size_t last_kept() const { return last_kept_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

 private:
  CompressionMode mode_;
  double keep_fraction_;
  util::Rng rng_;
  SparsifyScratch scratch_;
  std::size_t last_kept_ = 0;
};

/// GIB significance filtering as a stage (§4.1): a per-block keep mask
/// selects which layer blocks travel; dropped blocks are zeroed out of
/// the dense payload and their (real-model-scale) bytes leave the value
/// accounting. With attach_bitmap the serialized bitmap cost
/// (4 + ceil(B/8) bytes) rides in the index channel — the PushGIB term
/// the paper's Eq. 5 neglects.
class GibFilter : public MessageFilter {
 public:
  struct Block {
    std::size_t offset = 0;   ///< first value index of the block
    std::size_t numel = 0;    ///< proxy values in the block
    double wire_bytes = 0.0;  ///< simulated (real-model-scale) size
  };

  explicit GibFilter(bool attach_bitmap = false)
      : attach_bitmap_(attach_bitmap) {}

  void set_blocks(std::vector<Block> blocks) { blocks_ = std::move(blocks); }
  /// keep[b] != 0 means block b travels. Sized like blocks().
  void set_selection(std::vector<std::uint8_t> keep);
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  [[nodiscard]] std::string name() const override { return "gib"; }
  void encode(KvMessage& m) override;
  void decode(KvMessage& m) override;

 private:
  bool attach_bitmap_;
  std::vector<Block> blocks_;
  std::vector<std::uint8_t> keep_;
};

}  // namespace osp::kv
