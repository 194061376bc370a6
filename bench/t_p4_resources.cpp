// T-P4 — Figure 2 step (iii): compile the deployable model for the
// switch and measure what it costs.
//
// Table 1: resource usage vs student depth for both compilation
// strategies (tree-walk stages vs TCAM rule expansion) against the
// Tofino-like budget — the max deployable depth falls out.
// Table 2 (ablation, design choice #2): native range matching vs
// range-to-prefix ternary expansion — the entry blowup factor.
// Microbench-style numbers: software-switch classification throughput
// vs running the full black-box forest per packet on the CPU.
#include <chrono>
#include <cstdio>

#include "campuslab/control/development_loop.h"
#include "campuslab/ml/metrics.h"
#include "campuslab/testbed/testbed.h"

using namespace campuslab;

namespace {

ml::Dataset collect_dataset() {
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = 901;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 1500})
          .rate(1500)
          .starting_at(Timestamp::from_seconds(5))
          .lasting(Duration::seconds(20)));
  cfg.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.4;
  cfg.collector.seed = 902;
  testbed::Testbed bed(cfg);
  bed.run(Duration::seconds(30));
  return bed.harvest_dataset();
}

}  // namespace

int main() {
  const auto raw = collect_dataset();
  const auto quantizer = dataplane::Quantizer::fit(raw);
  const auto dataset = quantizer.quantize_dataset(raw);
  Rng rng(903);
  const auto [train, test] = dataset.stratified_split(0.3, rng);

  ml::ForestConfig fc;
  fc.n_trees = 40;
  fc.seed = 904;
  ml::RandomForest teacher(fc);
  teacher.fit(train);

  const auto budget = dataplane::ResourceBudget::tofino_like();
  const auto mask = features::register_mask_for(train.feature_names());
  const auto grid_q = dataplane::Quantizer::identity(train.n_features());

  std::puts("=== T-P4: switch resources vs student depth "
            "(budget: 12 stages, 24576 TCAM entries, 12 MiB SRAM) ===");
  std::printf("%-7s %-7s | %-8s %-10s %-6s | %-8s %-12s %-6s\n", "depth",
              "leaves", "tw.stage", "tw.sram_b", "fits", "tcam.stg",
              "tcam.entries", "fits");
  for (const int depth : {2, 3, 4, 5, 6, 8, 10, 12, 14}) {
    xai::ExtractConfig xc;
    xc.student_max_depth = depth;
    xc.min_samples_leaf = 5;
    xc.synthetic_samples = 8000;
    xc.seed = 910 + static_cast<std::uint64_t>(depth);
    const auto student =
        xai::ModelExtractor(xc).extract(teacher, train).student;

    const auto tree_prog =
        dataplane::TreeProgram::compile(student, grid_q, mask);
    const auto rules = xai::RuleList::from_tree(student);
    const auto tcam_prog = dataplane::RuleTcamProgram::compile(
        rules, grid_q, 1 << 22, mask);

    std::printf("%-7d %-7zu | ", depth, student.leaf_count());
    if (tree_prog.ok()) {
      const auto r = tree_prog.value().resources();
      std::printf("%-8d %-10zu %-6s | ", r.stages_used, r.sram_bits,
                  r.fits(budget) ? "yes" : "NO");
    } else {
      std::printf("%-27s | ", "compile failed");
    }
    if (tcam_prog.ok()) {
      const auto r = tcam_prog.value().resources();
      std::printf("%-8d %-12zu %-6s\n", r.stages_used, r.tcam_entries,
                  r.fits(budget) ? "yes" : "NO");
    } else {
      std::printf("exceeds %s\n", tcam_prog.error().code.c_str());
    }
  }

  // ---- Ablation: native ranges vs ternary expansion. -----------------
  std::puts("\n=== T-P4 ablation: range-to-ternary expansion factor ===");
  std::printf("%-7s %-8s %-14s %-10s\n", "depth", "rules",
              "tcam entries", "blowup");
  for (const int depth : {3, 5, 8}) {
    xai::ExtractConfig xc;
    xc.student_max_depth = depth;
    xc.synthetic_samples = 8000;
    xc.seed = 950 + static_cast<std::uint64_t>(depth);
    const auto student =
        xai::ModelExtractor(xc).extract(teacher, train).student;
    const auto rules = xai::RuleList::from_tree(student);
    const auto tcam = dataplane::RuleTcamProgram::compile(rules, grid_q,
                                                          1 << 22, mask);
    if (!tcam.ok()) continue;
    // A native range-capable target installs one entry per rule.
    const auto native = rules.rules().size();
    std::printf("%-7d %-8zu %-14zu %-10.1fx\n", depth, native,
                tcam.value().table().size(),
                static_cast<double>(tcam.value().table().size()) /
                    static_cast<double>(native));
  }

  // ---- Throughput: compiled pipeline vs CPU-side black box. ----------
  std::puts("\n=== T-P4: classification cost, compiled pipeline vs "
            "CPU black box ===");
  xai::ExtractConfig xc;
  xc.student_max_depth = 5;
  xc.seed = 980;
  const auto student =
      xai::ModelExtractor(xc).extract(teacher, train).student;
  const auto tree_prog =
      dataplane::TreeProgram::compile(student, grid_q, mask);
  if (!tree_prog.ok()) return 1;

  std::vector<std::vector<std::uint32_t>> qrows;
  for (std::size_t i = 0; i < test.n_rows(); ++i) {
    std::vector<std::uint32_t> q(test.n_features());
    for (std::size_t f = 0; f < q.size(); ++f)
      q[f] = static_cast<std::uint32_t>(test.row(i)[f]);
    qrows.push_back(std::move(q));
  }
  auto time_ns = [&](auto&& fn) {
    const std::size_t reps = 200'000 / std::max<std::size_t>(
                                           qrows.size(), 1) + 1;
    const auto t0 = std::chrono::steady_clock::now();
    int sink = 0;
    for (std::size_t r = 0; r < reps; ++r)
      for (std::size_t i = 0; i < qrows.size(); ++i) sink += fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    asm volatile("" : : "r"(sink));
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                    t0)
                   .count()) /
           static_cast<double>(reps * qrows.size());
  };
  const double pipeline_ns = time_ns(
      [&](std::size_t i) { return tree_prog.value().classify(qrows[i]).cls; });
  const double forest_ns =
      time_ns([&](std::size_t i) { return teacher.predict(test.row(i)); });
  std::printf(
      "compiled tree-walk: %7.1f ns/pkt (%.2f Mpps single-core)\n"
      "black-box forest  : %7.1f ns/pkt (%.2f Mpps single-core)\n"
      "speedup           : %7.1fx\n",
      pipeline_ns, 1e3 / pipeline_ns, forest_ns, 1e3 / forest_ns,
      forest_ns / pipeline_ns);
  std::puts("(a hardware pipeline runs the same walk at line rate; the "
            "point is the model *fits the machine model*)");
  return 0;
}
