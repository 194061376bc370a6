// Tests for campuslab::dataplane — quantizer monotonicity, range-to-
// prefix correctness (property: cover is exact and minimal-bounded),
// ternary/exact/range table semantics, and the central compiler
// property: TreeProgram and RuleTcamProgram produce byte-identical
// verdicts to the source tree on quantized inputs.
#include <gtest/gtest.h>

#include "campuslab/dataplane/p4gen.h"
#include "campuslab/dataplane/programs.h"
#include "campuslab/dataplane/quantize.h"
#include "campuslab/dataplane/switch.h"
#include "campuslab/dataplane/tables.h"
#include "campuslab/ml/metrics.h"

namespace campuslab::dataplane {
namespace {

ml::Dataset grid_dataset(std::size_t n, std::uint64_t seed) {
  // 3 classes over 4 features with axis-aligned structure (tree-friendly).
  ml::Dataset data({"f0", "f1", "f2", "f3"}, {"a", "b", "c"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x[4] = {rng.uniform(0, 100), rng.uniform(0, 1),
                         rng.uniform(-50, 50), rng.uniform(0, 1e6)};
    int y = 0;
    if (x[0] > 60 && x[3] > 4e5) y = 1;
    else if (x[1] > 0.7 || x[2] > 20) y = 2;
    data.add(x, y);
  }
  return data;
}

// --------------------------------------------------------------- Quantizer

TEST(Quantizer, MonotoneAndBounded) {
  auto data = grid_dataset(500, 1);
  const auto q = Quantizer::fit(data);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-10, 110);
    const double b = rng.uniform(-10, 110);
    const auto qa = q.quantize(0, a);
    const auto qb = q.quantize(0, b);
    EXPECT_LE(qa, Quantizer::kMaxQ);
    if (a <= b) {
      EXPECT_LE(qa, qb);
    }
  }
  EXPECT_EQ(q.quantize(0, -1e9), 0u);
  EXPECT_EQ(q.quantize(0, 1e9), Quantizer::kMaxQ);
}

TEST(Quantizer, ConstantFeatureMapsToZero) {
  const auto q = Quantizer::from_ranges({{5.0, 5.0}});
  EXPECT_EQ(q.quantize(0, 5.0), 0u);
  EXPECT_EQ(q.quantize(0, 100.0), 0u);
}

TEST(Quantizer, DequantizeInvertsWithinBucket) {
  const auto q = Quantizer::from_ranges({{0.0, 1000.0}});
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0, 1000);
    const auto bucket = q.quantize(0, v);
    const double back = q.dequantize(0, bucket);
    EXPECT_NEAR(back, v, 1000.0 / 65536.0 + 1e-9);
  }
}

TEST(Quantizer, QuantizedDatasetValuesAreGridPoints) {
  auto data = grid_dataset(100, 4);
  const auto q = Quantizer::fit(data);
  const auto qd = q.quantize_dataset(data);
  for (std::size_t i = 0; i < qd.n_rows(); ++i)
    for (std::size_t f = 0; f < qd.n_features(); ++f) {
      const double v = qd.row(i)[f];
      EXPECT_EQ(v, std::floor(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, static_cast<double>(Quantizer::kMaxQ));
    }
}

// --------------------------------------------------------- RangeToPrefixes

TEST(RangeToPrefixes, FullRangeIsOneWildcard) {
  const auto prefixes = range_to_prefixes(0, 0xFFFF, 16);
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0].mask & 0xFFFF, 0u);
}

TEST(RangeToPrefixes, SingleValueIsExact) {
  const auto prefixes = range_to_prefixes(42, 42, 16);
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0].value, 42u);
  EXPECT_EQ(prefixes[0].mask, 0xFFFFu);
}

TEST(RangeToPrefixesProperty, ExactCoverAndBound) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int width = 10;  // exhaustive check over 1024 values
    const auto a = static_cast<std::uint32_t>(rng.below(1 << width));
    const auto b = static_cast<std::uint32_t>(rng.below(1 << width));
    const auto lo = std::min(a, b);
    const auto hi = std::max(a, b);
    const auto prefixes = range_to_prefixes(lo, hi, width);
    EXPECT_LE(prefixes.size(), 2u * width - 2);
    for (std::uint32_t v = 0; v < (1u << width); ++v) {
      int matches = 0;
      for (const auto& p : prefixes)
        if ((v & p.mask) == (p.value & p.mask)) ++matches;
      const bool in_range = v >= lo && v <= hi;
      EXPECT_EQ(matches, in_range ? 1 : 0)
          << "v=" << v << " range=[" << lo << "," << hi << "]";
    }
  }
}

// ------------------------------------------------------------------ Tables

TEST(TernaryTable, PriorityWins) {
  TernaryTable table(1);
  table.add(TernaryEntry{{0}, {0}, 0, 111});         // wildcard, low prio
  table.add(TernaryEntry{{5}, {0xFFFF}, 10, 222});   // exact 5, high prio
  const std::uint32_t k5[1] = {5};
  const std::uint32_t k6[1] = {6};
  EXPECT_EQ(table.lookup(k5), 222u);
  EXPECT_EQ(table.lookup(k6), 111u);
}

TEST(TernaryTable, MissReturnsNullopt) {
  TernaryTable table(2);
  table.add(TernaryEntry{{1, 2}, {0xFFFF, 0xFFFF}, 0, 9});
  const std::uint32_t key[2] = {1, 3};
  EXPECT_FALSE(table.lookup(key).has_value());
}

TEST(ExactTable, LookupAfterManyInserts) {
  ExactTable table;
  for (std::uint32_t k = 0; k < 1000; ++k) table.add(k * 3, k);
  EXPECT_EQ(table.lookup(999 * 3), 999u);
  EXPECT_FALSE(table.lookup(1).has_value());
}

TEST(RangeTable, FirstMatchWins) {
  RangeTable table;
  table.add(RangeEntry{0, 50, 1});
  table.add(RangeEntry{40, 100, 2});
  EXPECT_EQ(table.lookup(45), 1u);
  EXPECT_EQ(table.lookup(80), 2u);
  EXPECT_FALSE(table.lookup(200).has_value());
}

// ---------------------------------------------------------------- Verdicts

TEST(Verdict, PackUnpackRoundTrip) {
  for (int cls = 0; cls < 5; ++cls) {
    for (double conf : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      const auto packed = pack_verdict(Verdict{cls, conf});
      const auto v = unpack_verdict(packed);
      EXPECT_EQ(v.cls, cls);
      EXPECT_NEAR(v.confidence, conf, 1.0 / 255.0);
    }
  }
}

// --------------------------------------------------------------- Compilers

class CompilerFixture : public ::testing::Test {
 protected:
  CompilerFixture() {
    auto raw = grid_dataset(4000, 11);
    quantizer_ = Quantizer::fit(raw);
    // Train on quantized features for exact dataplane equivalence.
    data_ = std::make_unique<ml::Dataset>(quantizer_identity().quantize_dataset(raw));
    ml::TreeConfig cfg;
    cfg.max_depth = 6;
    tree_.emplace(cfg);
    tree_->fit(*data_);
  }

  /// The dataset is quantized with the fitted quantizer; the programs
  /// then run with an identity quantizer over [0, kMaxQ].
  Quantizer quantizer_identity() const { return quantizer_; }
  Quantizer identity_over_q() const { return Quantizer::identity(4); }

  Quantizer quantizer_ = Quantizer::from_ranges({});
  std::unique_ptr<ml::Dataset> data_;
  std::optional<ml::DecisionTree> tree_;
};

TEST_F(CompilerFixture, TreeProgramMatchesTreeExactly) {
  // Identity mapping: q(v) = floor(v) over the quantized grid, so
  // integer-valued features survive exactly.
  const auto program = TreeProgram::compile(*tree_, identity_over_q());
  ASSERT_TRUE(program.ok());
  for (std::size_t i = 0; i < data_->n_rows(); ++i) {
    const auto row = data_->row(i);
    std::vector<std::uint32_t> qx(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
      qx[f] = static_cast<std::uint32_t>(row[f]);
    const auto verdict = program.value().classify(qx);
    EXPECT_EQ(verdict.cls, tree_->predict(row)) << "row " << i;
    EXPECT_NEAR(verdict.confidence, tree_->confidence(row), 1.0 / 255.0);
  }
}

TEST_F(CompilerFixture, RuleTcamMatchesTreeExactly) {
  const auto rules = xai::RuleList::from_tree(*tree_);
  const auto program = RuleTcamProgram::compile(rules, identity_over_q());
  ASSERT_TRUE(program.ok());
  for (std::size_t i = 0; i < data_->n_rows(); ++i) {
    const auto row = data_->row(i);
    std::vector<std::uint32_t> qx(row.size());
    for (std::size_t f = 0; f < row.size(); ++f)
      qx[f] = static_cast<std::uint32_t>(row[f]);
    const auto verdict = program.value().classify(qx);
    EXPECT_EQ(verdict.cls, tree_->predict(row)) << "row " << i;
  }
}

TEST_F(CompilerFixture, ProgramsAgreeOnRandomInputs) {
  const auto tree_prog = TreeProgram::compile(*tree_, identity_over_q());
  const auto tcam_prog = RuleTcamProgram::compile(
      xai::RuleList::from_tree(*tree_), identity_over_q());
  ASSERT_TRUE(tree_prog.ok());
  ASSERT_TRUE(tcam_prog.ok());
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    std::uint32_t qx[4];
    for (auto& v : qx)
      v = static_cast<std::uint32_t>(rng.below(Quantizer::kMaxQ + 1));
    const auto a = tree_prog.value().classify(qx);
    const auto b = tcam_prog.value().classify(qx);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.confidence, b.confidence);
  }
}

TEST_F(CompilerFixture, TreeProgramResources) {
  const auto program = TreeProgram::compile(*tree_, identity_over_q());
  ASSERT_TRUE(program.ok());
  const auto r = program.value().resources();
  EXPECT_EQ(r.stages_used, 1 + program.value().levels());
  EXPECT_LE(program.value().levels(), 7);  // depth 6 -> 7 levels
  EXPECT_EQ(r.tcam_entries, 0u);
  EXPECT_GT(r.sram_bits, 0u);
  EXPECT_TRUE(r.fits(ResourceBudget::tofino_like()));
}

TEST_F(CompilerFixture, TcamUsesMoreEntriesThanRules) {
  const auto rules = xai::RuleList::from_tree(*tree_);
  const auto program = RuleTcamProgram::compile(rules, identity_over_q());
  ASSERT_TRUE(program.ok());
  // Range expansion strictly inflates entry count for realistic trees.
  EXPECT_GT(program.value().table().size(), rules.rules().size());
  EXPECT_EQ(program.value().source_rules(), rules.rules().size());
}

TEST_F(CompilerFixture, TcamBudgetEnforced) {
  const auto rules = xai::RuleList::from_tree(*tree_);
  const auto program = RuleTcamProgram::compile(rules, identity_over_q(),
                                                /*max_entries=*/4);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.error().code, "budget");
}

TEST_F(CompilerFixture, RegisterMaskCounted) {
  std::vector<bool> mask(4, false);
  mask[0] = true;  // f0 is register-backed and used by the tree
  const auto program =
      TreeProgram::compile(*tree_, identity_over_q(), mask);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program.value().resources().register_arrays_used, 1);
}

TEST(TreeProgramEdge, SingleLeafTree) {
  ml::Dataset data({"x"}, {"only", "other"});
  const double row[1] = {1.0};
  for (int i = 0; i < 10; ++i) data.add(row, 0);
  ml::DecisionTree tree;
  tree.fit(data);
  const auto q = Quantizer::from_ranges({{0.0, 2.0}});
  const auto program = TreeProgram::compile(tree, q);
  ASSERT_TRUE(program.ok());
  const std::uint32_t qx[1] = {100};
  EXPECT_EQ(program.value().classify(qx).cls, 0);
  EXPECT_EQ(program.value().levels(), 1);
}

// ------------------------------------------------------------------ P4 gen

TEST_F(CompilerFixture, P4SourceForTreeProgram) {
  const auto program = TreeProgram::compile(*tree_, identity_over_q());
  ASSERT_TRUE(program.ok());
  const auto p4 = generate_p4(program.value(), data_->feature_names(),
                              FilterPolicy{1, 0.9});
  EXPECT_NE(p4.find("model_metadata_t"), std::string::npos);
  EXPECT_NE(p4.find("bit<16> f0;"), std::string::npos);
  EXPECT_NE(p4.find("control TreeLevel0"), std::string::npos);
  EXPECT_NE(p4.find("mark_to_drop"), std::string::npos);
  EXPECT_NE(p4.find("const entries"), std::string::npos);
  // 0.9 * 255 = 229 (rounded down): threshold appears in the drop rule.
  EXPECT_NE(p4.find(">= 229"), std::string::npos);
}

TEST_F(CompilerFixture, P4SourceForTcamProgram) {
  const auto program = RuleTcamProgram::compile(
      xai::RuleList::from_tree(*tree_), identity_over_q());
  ASSERT_TRUE(program.ok());
  const auto p4 = generate_p4(program.value(), data_->feature_names(),
                              FilterPolicy{2, 0.95});
  EXPECT_NE(p4.find("ternary"), std::string::npos);
  EXPECT_NE(p4.find("set_verdict"), std::string::npos);
  EXPECT_NE(p4.find("&&&"), std::string::npos);
}

}  // namespace
}  // namespace campuslab::dataplane
