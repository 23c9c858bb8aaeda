// KV message-filter compositions: wire bytes per push for each pipeline
// stack, plus what the byte reduction does to accuracy and BST.
//
// Every row is BspSync under proxy accounting (BSP numerics, barrier
// semantics) with a different filter pipeline, so the *only* difference
// between rows is what the composed filters do to the payload and its
// accounting. Bytes are at the self-consistent proxy scale (4 bytes per
// proxy element; the dense row is the reference), so the interesting
// column is the ratio. The EXPERIMENTS.md wire-bytes table is generated from this
// bench.
#include "bench_common.hpp"

#include "sync/bsp.hpp"

int main() {
  using namespace osp;
  std::cout << "# KV filter compositions: wire bytes vs accuracy "
               "(ResNet50/CIFAR10)\n";
  util::Table table({"pipeline", "push bytes", "vs dense", "best metric",
                     "steady BST (s)"});
  const auto spec = models::resnet50_cifar10();
  auto cfg = bench::paper_config();
  cfg.record_telemetry = true;  // the wire bytes come from round telemetry

  struct Row {
    std::string label;
    sync::BspOptions opt;
  };
  std::vector<Row> rows;
  // Proxy accounting, and the selection seed the rows were recorded with.
  const sync::BspOptions base{.accounting = sync::Accounting::kProxy,
                              .seed = 4242};
  rows.push_back({"dense", base});
  {
    sync::BspOptions o = base;
    o.gib_keep_fraction = 0.5;
    rows.push_back({"gib 50%", o});
  }
  {
    sync::BspOptions o = base;
    o.keep_fraction = 0.1;
    rows.push_back({"topk 10%", o});
  }
  {
    sync::BspOptions o = base;
    o.quantize_int8 = true;
    rows.push_back({"q8", o});
  }
  {
    sync::BspOptions o = base;
    o.gib_keep_fraction = 0.5;
    o.keep_fraction = 0.1;
    rows.push_back({"gib∘topk", o});
  }
  {
    sync::BspOptions o = base;
    o.gib_keep_fraction = 0.5;
    o.quantize_int8 = true;
    rows.push_back({"gib∘q8", o});
  }
  {
    sync::BspOptions o = base;
    o.keep_fraction = 0.1;
    o.quantize_int8 = true;
    rows.push_back({"topk∘q8", o});
  }
  {
    sync::BspOptions o = base;
    o.gib_keep_fraction = 0.5;
    o.keep_fraction = 0.1;
    o.quantize_int8 = true;
    rows.push_back({"gib∘topk∘q8", o});
  }

  double dense_push = 0.0;
  for (const Row& row : rows) {
    sync::BspSync sync(row.opt);
    const auto r = bench::run_one(spec, sync, cfg);
    // Mean encoded push wire bytes per worker per round.
    double total = 0.0;
    for (const auto& rec : r.rounds) total += rec.important_bytes;
    const double push =
        r.rounds.empty()
            ? 0.0
            : total / (static_cast<double>(r.rounds.size()) *
                       static_cast<double>(cfg.num_workers));
    if (dense_push == 0.0) dense_push = push;
    table.add_row({row.label, util::Table::fmt(push, 1),
                   util::Table::fmt(100.0 * push / dense_push, 1) + "%",
                   util::Table::fmt(100.0 * r.best_metric, 2) + "%",
                   util::Table::fmt(r.steady_bst_s, 3)});
  }
  bench::emit(table, "kv_filters");
  return 0;
}
