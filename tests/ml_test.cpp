// Tests for campuslab::ml — dataset mechanics, CART behaviour (XOR,
// purity, depth caps, determinism, serialization), random forest,
// gradient boosting, the split-search sort against std::sort, exact
// fingerprints of all three learners' fits, a differential check of CART
// and the forest against a simple reference split search, logistic
// regression, and hand-computed metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "campuslab/ml/boosting.h"
#include "campuslab/ml/column_sort.h"
#include "campuslab/ml/forest.h"
#include "campuslab/ml/linear.h"
#include "campuslab/ml/metrics.h"
#include "campuslab/ml/tree.h"
#include "campuslab/util/hash.h"

namespace campuslab::ml {
namespace {

Dataset two_blob_dataset(std::size_t n_per_class, double separation,
                         std::uint64_t seed) {
  Dataset data({"x0", "x1"}, {"neg", "pos"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double a[2] = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    data.add(a, 0);
    const double b[2] = {rng.normal(separation, 1.0),
                         rng.normal(separation, 1.0)};
    data.add(b, 1);
  }
  return data;
}

Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data({"x0", "x1"}, {"zero", "one"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double row[2] = {x0, x1};
    data.add(row, (x0 > 0) != (x1 > 0) ? 1 : 0);
  }
  return data;
}

// --------------------------------------------------------------- Dataset

TEST(Dataset, AddAndAccess) {
  Dataset d({"a", "b"}, {"c0", "c1", "c2"});
  const double r0[2] = {1.0, 2.0};
  const double r1[2] = {3.0, 4.0};
  d.add(r0, 0);
  d.add(r1, 2);
  EXPECT_EQ(d.n_rows(), 2u);
  EXPECT_EQ(d.n_features(), 2u);
  EXPECT_EQ(d.n_classes(), 3);
  EXPECT_EQ(d.row(1)[0], 3.0);
  EXPECT_EQ(d.label(1), 2);
  EXPECT_EQ(d.class_counts(), (std::vector<std::size_t>{1, 0, 1}));
}

TEST(Dataset, StratifiedSplitPreservesClassBalance) {
  auto data = two_blob_dataset(500, 3.0, 1);
  Rng rng(2);
  const auto [train, test] = data.stratified_split(0.3, rng);
  EXPECT_EQ(train.n_rows() + test.n_rows(), data.n_rows());
  const auto train_counts = train.class_counts();
  const auto test_counts = test.class_counts();
  EXPECT_EQ(train_counts[0], train_counts[1]);
  EXPECT_EQ(test_counts[0], test_counts[1]);
  EXPECT_NEAR(static_cast<double>(test.n_rows()) /
                  static_cast<double>(data.n_rows()),
              0.3, 0.01);
}

TEST(Dataset, BootstrapSameSizeFromOriginalRows) {
  auto data = two_blob_dataset(50, 2.0, 3);
  Rng rng(4);
  Rng replay(4);
  const auto boot = data.bootstrap(rng);
  ASSERT_EQ(boot.size(), data.n_rows());
  for (const auto row : boot) {
    EXPECT_LT(row, data.n_rows());
    EXPECT_EQ(row, replay.below(data.n_rows()));
  }
  EXPECT_EQ(rng.next(), replay.next());  // no draw beyond the n rows
}

TEST(Dataset, FeatureRanges) {
  Dataset d({"a"}, {"c0", "c1"});
  for (double v : {3.0, -1.0, 7.0}) {
    const double row[1] = {v};
    d.add(row, 0);
  }
  const auto ranges = d.feature_ranges();
  EXPECT_EQ(ranges[0].first, -1.0);
  EXPECT_EQ(ranges[0].second, 7.0);
}

// ---------------------------------------------------------- DecisionTree

TEST(DecisionTree, LearnsSimpleThreshold) {
  Dataset data({"x"}, {"lo", "hi"});
  for (int i = 0; i < 100; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, i < 50 ? 0 : 1);
  }
  DecisionTree tree;
  tree.fit(data);
  const double lo[1] = {10.0}, hi[1] = {90.0}, edge[1] = {49.0};
  EXPECT_EQ(tree.predict(lo), 0);
  EXPECT_EQ(tree.predict(hi), 1);
  EXPECT_EQ(tree.predict(edge), 0);
  EXPECT_EQ(tree.depth(), 1);  // one split suffices
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(DecisionTree, SolvesXor) {
  auto data = xor_dataset(2000, 7);
  TreeConfig cfg;
  cfg.max_depth = 4;
  DecisionTree tree(cfg);
  tree.fit(data);
  const auto cm = evaluate(tree, data);
  EXPECT_GT(cm.accuracy(), 0.95);  // axis-aligned XOR needs depth 2
}

TEST(DecisionTree, RespectsMaxDepth) {
  auto data = xor_dataset(2000, 9);
  TreeConfig cfg;
  cfg.max_depth = 1;
  DecisionTree stump(cfg);
  stump.fit(data);
  EXPECT_LE(stump.depth(), 1);
  // A stump cannot solve XOR.
  EXPECT_LT(evaluate(stump, data).accuracy(), 0.7);
}

TEST(DecisionTree, PureDataMakesSingleLeaf) {
  Dataset data({"x"}, {"only", "other"});
  for (int i = 0; i < 20; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, 0);
  }
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
  const double x[1] = {5.0};
  EXPECT_EQ(tree.predict(x), 0);
  EXPECT_DOUBLE_EQ(tree.confidence(x), 1.0);
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  auto data = two_blob_dataset(100, 1.0, 11);
  TreeConfig cfg;
  cfg.min_samples_leaf = 20;
  DecisionTree tree(cfg);
  tree.fit(data);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.samples, 20u);
    }
  }
}

TEST(DecisionTree, DeterministicAcrossFits) {
  auto data = two_blob_dataset(300, 1.5, 13);
  DecisionTree a, b;
  a.fit(data);
  b.fit(data);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

TEST(DecisionTree, SampleWeightsShiftDecision) {
  // Same geometry, but weighting class 1 heavily moves the boundary.
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 10; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, i < 8 ? 0 : 1);  // 8 zeros, 2 ones
  }
  std::vector<double> weights(10, 1.0);
  weights[8] = weights[9] = 100.0;
  TreeConfig cfg;
  cfg.min_samples_leaf = 1;
  DecisionTree tree(cfg);
  tree.fit(data, nullptr, weights);
  // The heavily weighted class must dominate its region's leaf.
  const double x[1] = {9.0};
  EXPECT_EQ(tree.predict(x), 1);
}

TEST(DecisionTree, SerializeRoundTrip) {
  auto data = two_blob_dataset(200, 2.0, 17);
  DecisionTree tree;
  tree.fit(data);
  const auto text = tree.serialize();
  const auto restored = DecisionTree::deserialize(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().node_count(), tree.node_count());
  Rng rng(18);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    EXPECT_EQ(restored.value().predict(x), tree.predict(x));
    EXPECT_EQ(restored.value().predict_proba(x), tree.predict_proba(x));
  }
  EXPECT_EQ(restored.value().feature_names(), tree.feature_names());
}

TEST(DecisionTree, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DecisionTree::deserialize("not a tree").ok());
  EXPECT_FALSE(DecisionTree::deserialize("campuslab-tree v1\nbroken").ok());
  // Out-of-range child index.
  EXPECT_FALSE(DecisionTree::deserialize(
                   "campuslab-tree v1\n2 1 1\nx\na\nb\n0 0.5 5 6 10 0.5 0.5\n")
                   .ok());
}

// A two-class, one-feature tree of three nodes whose root row is `root`.
std::string tree_text(const std::string& dimensions, const std::string& root) {
  return "campuslab-tree v1\n" + dimensions + "\nx\na\nb\n" + root +
         "\n-1 0 -1 -1 5 1 0\n-1 0 -1 -1 5 0 1\n";
}

std::string deserialize_error(const std::string& text) {
  const auto tree = DecisionTree::deserialize(text);
  return tree.ok() ? "ok" : tree.error().code;
}

TEST(DecisionTree, DeserializeRejectsSplitFeatureOutOfRange) {
  // Feature 7 of a one-feature tree would be read past the input row.
  EXPECT_EQ(deserialize_error(tree_text("2 1 3", "7 0.5 1 2 10 0.5 0.5")),
            "format");
  // Below kLeaf is neither a leaf nor a feature.
  EXPECT_EQ(deserialize_error(tree_text("2 1 3", "-2 0.5 1 2 10 0.5 0.5")),
            "format");
}

TEST(DecisionTree, DeserializeRejectsChildNotAfterParent) {
  EXPECT_EQ(deserialize_error(tree_text("2 1 3", "0 0.5 1 2 10 0.5 0.5")),
            "ok");
  // A self-loop and a back edge: either would make a tree walk, and
  // depth(), spin forever.
  EXPECT_EQ(deserialize_error(tree_text("2 1 3", "0 0.5 0 2 10 0.5 0.5")),
            "format");
  EXPECT_EQ(deserialize_error(
                "campuslab-tree v1\n2 1 3\nx\na\nb\n"
                "0 0.5 1 2 10 0.5 0.5\n0 0.25 0 2 5 1 0\n"
                "-1 0 -1 -1 5 0 1\n"),
            "format");
}

TEST(DecisionTree, DeserializeRejectsNegativeCounts) {
  EXPECT_EQ(deserialize_error(tree_text("-3 1 3", "0 0.5 1 2 10 0.5 0.5")),
            "format");
  EXPECT_EQ(deserialize_error(tree_text("2 -1 3", "0 0.5 1 2 10 0.5 0.5")),
            "format");
  EXPECT_EQ(deserialize_error(tree_text("2 1 -3", "0 0.5 1 2 10 0.5 0.5")),
            "format");
}

TEST(DecisionTree, DeserializeRejectsCountsLargerThanText) {
  EXPECT_EQ(deserialize_error(
                tree_text("2 1 99999999999", "0 0.5 1 2 10 0.5 0.5")),
            "format");
  EXPECT_EQ(deserialize_error(
                tree_text("99999999999 1 3", "0 0.5 1 2 10 0.5 0.5")),
            "format");
  EXPECT_EQ(deserialize_error(
                tree_text("2 99999999999 3", "0 0.5 1 2 10 0.5 0.5")),
            "format");
}

TEST(DecisionTree, ToStringMentionsFeatureNames) {
  auto data = two_blob_dataset(200, 3.0, 19);
  DecisionTree tree;
  tree.fit(data);
  const auto text = tree.to_string();
  EXPECT_NE(text.find("if x"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

// ---------------------------------------------------------- RandomForest

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  // Noisy, overlapping blobs: a deep single tree overfits; bagging
  // smooths. Evaluate on held-out data.
  auto data = two_blob_dataset(600, 1.2, 23);
  Rng rng(24);
  const auto [train, test] = data.stratified_split(0.4, rng);

  TreeConfig tcfg;
  tcfg.max_depth = 20;
  tcfg.min_samples_leaf = 1;
  DecisionTree tree(tcfg);
  tree.fit(train);

  ForestConfig fcfg;
  fcfg.n_trees = 40;
  fcfg.seed = 25;
  RandomForest forest(fcfg);
  forest.fit(train);

  const double tree_acc = evaluate(tree, test).accuracy();
  const double forest_acc = evaluate(forest, test).accuracy();
  EXPECT_GE(forest_acc, tree_acc - 0.005);
  EXPECT_GT(forest_acc, 0.75);
}

TEST(RandomForest, ProbabilitiesAreDistributions) {
  auto data = two_blob_dataset(200, 2.0, 29);
  ForestConfig cfg;
  cfg.n_trees = 10;
  RandomForest forest(cfg);
  forest.fit(data);
  Rng rng(30);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    const auto probs = forest.predict_proba(x);
    double sum = 0;
    for (const auto p : probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicForSeed) {
  auto data = two_blob_dataset(200, 1.5, 31);
  ForestConfig cfg;
  cfg.n_trees = 8;
  cfg.seed = 77;
  RandomForest a(cfg), b(cfg);
  a.fit(data);
  b.fit(data);
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    EXPECT_EQ(a.predict_proba(x), b.predict_proba(x));
  }
}

TEST(RandomForest, FeatureImportanceFindsSignal) {
  // x0 carries all the signal; x1 is noise.
  Dataset data({"signal", "noise"}, {"a", "b"});
  Rng rng(33);
  for (int i = 0; i < 1000; ++i) {
    const double x0 = rng.uniform(0, 1);
    const double row[2] = {x0, rng.uniform(0, 1)};
    data.add(row, x0 > 0.5 ? 1 : 0);
  }
  ForestConfig cfg;
  cfg.n_trees = 20;
  cfg.features_per_split = 1;  // force both features to be tried
  RandomForest forest(cfg);
  forest.fit(data);
  const auto importance = forest.feature_importance();
  ASSERT_GE(importance.size(), 1u);
  const double noise_imp =
      importance.size() > 1 ? importance[1] : 0.0;
  EXPECT_GT(importance[0], noise_imp * 2);
}

TEST(RandomForest, IsGenuinelyBiggerThanOneTree) {
  auto data = two_blob_dataset(300, 1.0, 37);
  ForestConfig cfg;
  cfg.n_trees = 30;
  RandomForest forest(cfg);
  forest.fit(data);
  EXPECT_EQ(forest.trees().size(), 30u);
  EXPECT_GT(forest.total_nodes(), forest.trees()[0].node_count() * 10);
}

// -------------------------------------------------------- GradientBoosted

TEST(GradientBoosted, LearnsBlobs) {
  auto data = two_blob_dataset(500, 2.0, 41);
  Rng rng(42);
  const auto [train, test] = data.stratified_split(0.3, rng);
  GradientBoosted gbt;
  gbt.fit(train);
  EXPECT_GT(evaluate(gbt, test).accuracy(), 0.9);
}

TEST(GradientBoosted, SolvesXorUnlikeLinear) {
  auto data = xor_dataset(3000, 43);
  Rng rng(44);
  const auto [train, test] = data.stratified_split(0.3, rng);
  GradientBoosted gbt;
  gbt.fit(train);
  LogisticRegression logit;
  logit.fit(train);
  const double gbt_acc = evaluate(gbt, test).accuracy();
  const double logit_acc = evaluate(logit, test).accuracy();
  EXPECT_GT(gbt_acc, 0.93);
  EXPECT_LT(logit_acc, 0.65);  // linear model cannot represent XOR
}

TEST(GradientBoosted, DecisionValueMonotoneInProbability) {
  auto data = two_blob_dataset(300, 2.0, 45);
  GradientBoosted gbt;
  gbt.fit(data);
  Rng rng(46);
  for (int i = 0; i < 50; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    const double value = gbt.decision_value(x);
    const auto probs = gbt.predict_proba(x);
    EXPECT_NEAR(probs[1], 1.0 / (1.0 + std::exp(-value)), 1e-12);
  }
}

TEST(GradientBoosted, MoreRoundsMoreNodes) {
  auto data = two_blob_dataset(200, 1.0, 47);
  BoostConfig small, big;
  small.n_rounds = 5;
  big.n_rounds = 50;
  GradientBoosted a(small), b(big);
  a.fit(data);
  b.fit(data);
  EXPECT_EQ(a.rounds_trained(), 5);
  EXPECT_EQ(b.rounds_trained(), 50);
  EXPECT_GT(b.total_nodes(), a.total_nodes());
}

// ----------------------------------------------------------- ColumnSorter
//
// The split-search kernel must give exactly std::sort's order of the
// same (value, row) pairs, values compared bit for bit: that is what
// keeps every fitted tree byte-identical to a comparison sort's. NaN is
// outside the contract, as it is for std::sort.

double family_value(int family, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kSpecial[] = {-0.0, 0.0, kInf, -kInf, kTiny, -kTiny,
                                 std::numeric_limits<double>::min(),
                                 -kMax, kMax, 1.0, -1.0};
  switch (family) {
    case 0:  // constant
      return 3.25;
    case 1:  // two-valued
      return rng.chance(0.5) ? -1.0 : 7.5;
    case 2:  // quantized grid
      return static_cast<double>(rng.below(64)) * 0.25;
    case 3:  // continuous
      return rng.normal(0.0, 1e3);
    case 4:  // signed: +/-0.0, +/-inf, subnormals, extremes
      return rng.chance(0.5) ? kSpecial[rng.below(std::size(kSpecial))]
                             : kTiny * static_cast<double>(
                                           rng.between(-300, 300));
    default: {  // uniform bit patterns: every byte of the key differs
      double v = 0.0;
      do {
        v = std::bit_cast<double>(rng.next());
      } while (std::isnan(v));
      return v;
    }
  }
}

TEST(ColumnSorter, MatchesStdSortBitForBit) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 255, 256, 257, 10'000};
  constexpr std::size_t kMaxRows = 2 * 10'000 + 1;
  Rng rng(99);
  for (int family = 0; family < 6; ++family) {
    ColumnSorter sorter(kMaxRows);  // reused across sizes, like nodes
    for (const std::size_t n : kSizes) {
      // n of 2n + 1 rows, ascending with gaps, like a node's rows; the
      // values sit in the second feature.
      const std::size_t total = 2 * n + 1;
      Dataset data({"noise", "value"}, {"only"});
      for (std::size_t i = 0; i < total; ++i) {
        const double noise = rng.uniform();
        const double row[2] = {noise, family_value(family, rng)};
        data.add(row, 0);
      }
      std::vector<std::size_t> rows;
      for (std::size_t i = 0; i < total; ++i)
        if (rng.below(total - i) < n - rows.size()) rows.push_back(i);
      ASSERT_EQ(rows.size(), n);

      std::vector<std::pair<double, std::size_t>> expected;
      for (const auto r : rows) expected.emplace_back(data.row(r)[1], r);
      std::sort(expected.begin(), expected.end());
      const auto sorted = sorter.sort(data, rows, 1);
      ASSERT_EQ(sorted.size(), n);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sorted[k].first),
                  std::bit_cast<std::uint64_t>(expected[k].first))
            << "family " << family << ", n " << n << ", position " << k;
        ASSERT_EQ(sorted[k].second, expected[k].second)
            << "family " << family << ", n " << n << ", position " << k;
      }
    }
  }
}

// ------------------------------------------------------------ RankSorter
//
// The node sort must give std::sort's order of (value, position) pairs,
// where a position stands for a dataset row: the identity for a plain
// fit, a draw with repeats for a forest tree. Ranks tie exactly where
// values compare equal, -0.0 beside +0.0 included.

TEST(RankSorter, MatchesStdSortOfValueAndPosition) {
  constexpr std::size_t kSizes[] = {1, 2, 3, 255, 256, 257, 10'000};
  constexpr std::size_t kMaxRows = 2 * 10'000 + 1;
  Rng rng(101);
  for (int family = 0; family < 6; ++family) {
    RankSorter sorter(kMaxRows);  // reused across sizes, like nodes
    for (const std::size_t n : kSizes) {
      const std::size_t total = 2 * n + 1;
      Dataset data({"noise", "value"}, {"only"});
      for (std::size_t i = 0; i < total; ++i) {
        const double row[2] = {rng.uniform(), family_value(family, rng)};
        data.add(row, 0);
      }
      // Dense ranks: one per distinct value (std::set folds -0.0 into
      // +0.0 as `<` does), all within key_bytes().
      const FeatureRanks ranks(data);
      const auto column = ranks.column(1);
      const auto max_rank = *std::max_element(column.begin(), column.end());
      std::set<double> distinct;
      for (std::size_t i = 0; i < total; ++i) distinct.insert(data.row(i)[1]);
      ASSERT_EQ(distinct.size(), std::size_t{max_rank} + 1);
      ASSERT_LE(static_cast<unsigned>(std::bit_width(max_rank)),
                8 * ranks.key_bytes(1));
      for (const bool drawn : {false, true}) {
        std::vector<std::uint32_t> rows(total);
        for (std::size_t p = 0; p < total; ++p)
          rows[p] = static_cast<std::uint32_t>(drawn ? rng.below(total) : p);
        // n of the 2n + 1 positions, ascending with gaps, like a node's.
        std::vector<std::uint32_t> positions;
        for (std::uint32_t p = 0; p < total; ++p)
          if (rng.below(total - p) < n - positions.size())
            positions.push_back(p);
        ASSERT_EQ(positions.size(), n);

        std::vector<std::pair<double, std::uint32_t>> expected;
        for (const auto p : positions)
          expected.emplace_back(data.row(rows[p])[1], p);
        std::sort(expected.begin(), expected.end());
        SCOPED_TRACE(::testing::Message() << "family " << family << ", n "
                                          << n << ", drawn " << drawn);
        const auto sorted = sorter.sort(ranks, 1, rows, positions);
        ASSERT_EQ(sorted.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(sorted[k].position, expected[k].second) << "at " << k;
          ASSERT_EQ(sorted[k].rank, ranks.column(1)[rows[sorted[k].position]])
              << "at " << k;
          if (k > 0) {
            ASSERT_EQ(sorted[k - 1].rank == sorted[k].rank,
                      expected[k - 1].first == expected[k].first)
                << "at " << k;
          }
        }
      }
    }
  }
}

// ---------------------------------------------- Reference split search
//
// The simple CART the library's split search must equal: copy the node's
// column, std::sort its (value, row) pairs, sweep. The reference forest
// fits it on data.subset(drawn rows). For seeded draws of data and
// configuration, the library's serialize() must equal the reference's
// byte for byte, for CART and for every tree of a forest.

double reference_gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : counts) sum_sq += (c / total) * (c / total);
  return 1.0 - sum_sq;
}

struct ReferenceCart {
  const Dataset& data;
  TreeConfig config;
  std::vector<double> weights;  // by row
  Rng* rng;
  std::vector<TreeNode> nodes;

  int build(const std::vector<std::size_t>& rows, int depth) {
    std::vector<double> counts(static_cast<std::size_t>(data.n_classes()));
    double total = 0.0;
    for (const auto r : rows) {
      counts[static_cast<std::size_t>(data.label(r))] += weights[r];
      total += weights[r];
    }
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back().samples = rows.size();
    for (const auto c : counts)
      nodes.back().class_probs.push_back(total > 0 ? c / total : 0.0);
    if (std::count_if(counts.begin(), counts.end(),
                      [](double c) { return c > 0.0; }) <= 1 ||
        depth >= config.max_depth ||
        rows.size() < 2 * config.min_samples_leaf)
      return id;

    const std::size_t nf = data.n_features();
    std::vector<std::size_t> features(nf);
    std::iota(features.begin(), features.end(), std::size_t{0});
    std::size_t consider = nf;
    if (config.features_per_split > 0 && config.features_per_split < nf &&
        rng != nullptr) {
      consider = config.features_per_split;
      for (std::size_t i = 0; i < consider; ++i)
        std::swap(features[i], features[i + rng->below(nf - i)]);
    }
    const double parent = reference_gini(counts, total);
    int best_feature = -1;
    double best_threshold = 0.0, best_gain = 0.0;
    for (std::size_t fi = 0; fi < consider; ++fi) {
      const std::size_t f = features[fi];
      std::vector<std::pair<double, std::size_t>> column;
      for (const auto r : rows) column.emplace_back(data.row(r)[f], r);
      std::sort(column.begin(), column.end());
      if (column.front().first == column.back().first) continue;
      std::vector<double> left(counts.size(), 0.0);
      double left_weight = 0.0;
      for (std::size_t k = 0; k + 1 < column.size(); ++k) {
        const auto r = column[k].second;
        left[static_cast<std::size_t>(data.label(r))] += weights[r];
        left_weight += weights[r];
        if (column[k].first == column[k + 1].first) continue;
        const double right_weight = total - left_weight;
        if (left_weight <= 0.0 || right_weight <= 0.0) continue;
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < counts.size(); ++c) {
          const double p = (counts[c] - left[c]) / right_weight;
          sum_sq += p * p;
        }
        const double gain =
            parent - (left_weight * reference_gini(left, left_weight) +
                      right_weight * (1.0 - sum_sq)) /
                         total;
        if (gain > best_gain) {
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (column[k].first + column[k + 1].first);
          best_gain = gain;
        }
      }
    }
    if (best_feature < 0 || best_gain < config.min_gain) return id;

    std::vector<std::size_t> left_rows, right_rows;
    for (const auto r : rows)
      (data.row(r)[static_cast<std::size_t>(best_feature)] <= best_threshold
           ? left_rows
           : right_rows)
          .push_back(r);
    if (left_rows.size() < config.min_samples_leaf ||
        right_rows.size() < config.min_samples_leaf)
      return id;
    nodes[static_cast<std::size_t>(id)].feature = best_feature;
    nodes[static_cast<std::size_t>(id)].threshold = best_threshold;
    const int left_id = build(left_rows, depth + 1);
    nodes[static_cast<std::size_t>(id)].left = left_id;
    const int right_id = build(right_rows, depth + 1);
    nodes[static_cast<std::size_t>(id)].right = right_id;
    return id;
  }

  /// The reference's tree in DecisionTree::serialize()'s text format.
  std::string fit() {
    std::vector<std::size_t> rows(data.n_rows());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    build(rows, 0);
    std::ostringstream out;
    out.precision(17);
    out << "campuslab-tree v1\n"
        << data.n_classes() << ' ' << data.n_features() << ' '
        << nodes.size() << '\n';
    for (const auto& name : data.feature_names()) out << name << '\n';
    for (const auto& name : data.class_names()) out << name << '\n';
    for (const auto& node : nodes) {
      out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
          << node.right << ' ' << node.samples;
      for (const auto p : node.class_probs) out << ' ' << p;
      out << '\n';
    }
    return out.str();
  }
};

/// A seeded dataset: 1-4 columns of one value family (or of mixed
/// families), 2-3 classes that follow the first column with 25% noise.
Dataset drawn_dataset(std::size_t n, Rng& rng) {
  const std::size_t n_features = 1 + rng.below(4);
  const int n_classes = 2 + static_cast<int>(rng.below(2));
  std::vector<std::string> features, classes;
  std::vector<int> families;
  const bool mixed = rng.chance(0.5);
  const int family = static_cast<int>(rng.below(6));
  for (std::size_t f = 0; f < n_features; ++f) {
    features.push_back("f" + std::to_string(f));
    families.push_back(mixed ? static_cast<int>(rng.below(6)) : family);
  }
  for (int c = 0; c < n_classes; ++c) classes.push_back("c" + std::to_string(c));
  Dataset data(features, classes);
  std::vector<double> x(n_features);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < n_features; ++f)
      x[f] = family_value(families[f], rng);
    const int signal = (x[0] > 0.0) + (x[0] > x[n_features - 1]);
    const int label = rng.chance(0.25)
                          ? static_cast<int>(rng.below(n_classes))
                          : signal % n_classes;
    data.add(x, label);
  }
  return data;
}

TEST(ReferenceSplitSearch, CartMatchesByteForByte) {
  constexpr std::size_t kSizes[] = {1, 2, 17, 300, 3000};
  constexpr std::size_t kFeaturesPerSplit[] = {0, 1, 3};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto data = drawn_dataset(kSizes[seed % 5], rng);
    TreeConfig cfg;
    cfg.max_depth = 1 + static_cast<int>(rng.below(16));
    cfg.min_samples_leaf = 1 + rng.below(10);
    cfg.features_per_split = kFeaturesPerSplit[rng.below(3)];
    std::vector<double> weights;
    switch (rng.below(3)) {
      case 1:  // integer, zero included
        for (std::size_t i = 0; i < data.n_rows(); ++i)
          weights.push_back(static_cast<double>(rng.below(4)));
        break;
      case 2:  // fractional
        for (std::size_t i = 0; i < data.n_rows(); ++i)
          weights.push_back(rng.uniform(0.25, 4.0));
        break;
      default:  // none
        break;
    }
    const std::uint64_t split_seed = rng.next();

    DecisionTree tree(cfg);
    Rng tree_rng(split_seed);
    tree.fit(data, &tree_rng, weights);
    Rng ref_rng(split_seed);
    ReferenceCart ref{data, cfg, weights, &ref_rng, {}};
    if (ref.weights.empty()) ref.weights.assign(data.n_rows(), 1.0);
    ASSERT_EQ(tree.serialize(), ref.fit()) << "seed " << seed;
  }
}

TEST(ReferenceSplitSearch, ForestTreesMatchByteForByte) {
  constexpr std::size_t kSizes[] = {1, 2, 17, 300, 3000};
  constexpr std::size_t kFeaturesPerSplit[] = {0, 1, 3};
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed * 7919);
    const auto data = drawn_dataset(kSizes[seed % 5], rng);
    ForestConfig cfg;
    cfg.n_trees = 1 + static_cast<int>(rng.below(4));
    cfg.max_depth = 1 + static_cast<int>(rng.below(16));
    cfg.min_samples_leaf = 1 + rng.below(10);
    cfg.features_per_split = kFeaturesPerSplit[rng.below(3)];
    cfg.seed = rng.next();
    RandomForest forest(cfg);
    forest.fit(data);

    // The reference: each tree's draw copied into its own dataset.
    const std::size_t n = data.n_rows();
    TreeConfig tc;
    tc.max_depth = cfg.max_depth;
    tc.min_samples_leaf = cfg.min_samples_leaf;
    tc.features_per_split =
        cfg.features_per_split > 0
            ? cfg.features_per_split
            : static_cast<std::size_t>(std::max(
                  1.0, std::floor(std::sqrt(
                           static_cast<double>(data.n_features())))));
    Rng forest_rng(cfg.seed);
    ASSERT_EQ(forest.trees().size(), static_cast<std::size_t>(cfg.n_trees));
    for (int t = 0; t < cfg.n_trees; ++t) {
      Rng tree_rng = forest_rng.fork(static_cast<std::uint64_t>(t) + 1);
      std::vector<std::size_t> drawn(n);
      for (auto& r : drawn) r = tree_rng.below(n);
      const Dataset sample = data.subset(drawn);
      ReferenceCart ref{sample, tc, std::vector<double>(n, 1.0), &tree_rng,
                        {}};
      ASSERT_EQ(forest.trees()[static_cast<std::size_t>(t)].serialize(),
                ref.fit())
          << "seed " << seed << ", tree " << t;
    }
  }
}

// -------------------------------------------------------------- ModelPins
//
// Exact fingerprints of what each learner fits on one awkward dataset,
// recorded from the gather-and-std::sort split search. Any change to
// split order, tie-breaking, threshold arithmetic or leaf distributions
// moves them; DeterministicAcrossFits and DeterministicForSeed cannot
// see such a change because they compare two fits by the same code.
// The columns cover every value class a split search must order
// exactly: heavy ties, -0.0 beside +0.0 among mixed signs, ±inf,
// subnormals, a 0..65535 integer grid and continuous normals.

Dataset pin_dataset() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kSigned[] = {-0.0, 0.0, -1.0, 1.0, -2.5, 2.5};
  Dataset data({"ties", "signed_zero", "infinite", "subnormal", "grid",
                "normal"},
               {"neg", "pos"});
  Rng rng(2024);
  for (int i = 0; i < 3000; ++i) {
    const double ties = static_cast<double>(rng.below(3));
    const double signed_zero = kSigned[rng.below(6)];
    const double u = rng.uniform();
    const double infinite =
        u < 0.05 ? kInf : u < 0.1 ? -kInf : rng.normal(0.0, 10.0);
    const double subnormal =
        kTiny * static_cast<double>(rng.between(-1000, 1000));
    const double grid = static_cast<double>(rng.below(65536));
    const double normal = rng.normal();
    const int score = (ties == 2.0) + (signed_zero < 0.0) +
                      (infinite > 5.0) + (subnormal > 0.0) +
                      (grid > 30000.0) + (normal > 0.3);
    const bool noisy = rng.chance(0.1);
    const double row[6] = {ties,      signed_zero, infinite,
                           subnormal, grid,        normal};
    data.add(row, (score >= 3) != noisy ? 1 : 0);
  }
  return data;
}

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
std::uint64_t fingerprint(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8)
      h = util::fnv1a_byte(h, static_cast<std::uint8_t>(bits >> b));
  }
  return h;
}

TEST(ModelPins, CartTree) {
  const auto data = pin_dataset();
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(util::fnv1a(tree.serialize()), 0xd4f78d4cbdcfe080ULL);
}

TEST(ModelPins, WeightedCartTree) {
  const auto data = pin_dataset();
  Rng rng(7);
  std::vector<double> weights(data.n_rows());
  for (auto& w : weights) w = rng.uniform(0.25, 4.0);
  DecisionTree tree;
  tree.fit(data, nullptr, weights);
  EXPECT_EQ(util::fnv1a(tree.serialize()), 0xce21cf900add2025ULL);
}

TEST(ModelPins, RandomForest) {
  const auto data = pin_dataset();
  ForestConfig cfg;
  cfg.n_trees = 12;
  cfg.seed = 5;
  RandomForest forest(cfg);
  forest.fit(data);
  std::uint64_t trees = util::kFnvOffsetBasis;
  for (const auto& tree : forest.trees())
    trees = util::fnv1a(tree.serialize(), trees);
  std::uint64_t probs = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < data.n_rows(); ++i)
    probs = fingerprint(probs, forest.predict_proba(data.row(i)));
  EXPECT_EQ(trees, 0x44d1c986f3e915d8ULL);
  EXPECT_EQ(probs, 0xb386dc1460dce679ULL);
}

TEST(ModelPins, GradientBoosted) {
  const auto data = pin_dataset();
  GradientBoosted gbt;
  gbt.fit(data);
  std::uint64_t values = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    const double value = gbt.decision_value(data.row(i));
    values = fingerprint(values, std::span(&value, 1));
  }
  EXPECT_EQ(gbt.rounds_trained(), 80);
  EXPECT_EQ(values, 0xc836300e948dda43ULL);
}

// ----------------------------------------------------- LogisticRegression

TEST(LogisticRegression, SeparableBlobs) {
  auto data = two_blob_dataset(400, 3.0, 51);
  LogisticRegression logit;
  logit.fit(data);
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.97);
}

TEST(LogisticRegression, MultiClassOneVsRest) {
  Dataset data({"x0", "x1"}, {"a", "b", "c"});
  Rng rng(52);
  const double centers[3][2] = {{0, 0}, {6, 0}, {0, 6}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 200; ++i) {
      const double row[2] = {rng.normal(centers[c][0], 1.0),
                             rng.normal(centers[c][1], 1.0)};
      data.add(row, c);
    }
  LogisticRegression logit;
  logit.fit(data);
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.95);
}

TEST(LogisticRegression, HandlesConstantFeature) {
  Dataset data({"constant", "signal"}, {"a", "b"});
  Rng rng(53);
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(0, 1);
    const double row[2] = {5.0, s};
    data.add(row, s > 0.5 ? 1 : 0);
  }
  LogisticRegression logit;
  logit.fit(data);  // must not NaN out on zero variance
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.9);
}

// ---------------------------------------------------------------- Metrics

TEST(ConfusionMatrix, HandComputed) {
  ConfusionMatrix cm(2);
  // truth 0: 8 correct, 2 predicted 1.  truth 1: 3 predicted 0, 7 correct.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 3; ++i) cm.add(1, 0);
  for (int i = 0; i < 7; ++i) cm.add(1, 1);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 15.0 / 20.0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 7.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 7.0 / 10.0);
  const double p = 7.0 / 9.0, r = 0.7;
  EXPECT_DOUBLE_EQ(cm.f1(1), 2 * p * r / (p + r));
}

TEST(ConfusionMatrix, AbsentClassIsZeroNotNan) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_EQ(cm.precision(2), 0.0);
  EXPECT_EQ(cm.recall(2), 0.0);
  EXPECT_EQ(cm.f1(2), 0.0);
}

TEST(RocAuc, PerfectAndRandomAndInverted) {
  const std::vector<double> perfect{0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(roc_auc(perfect, labels), 1.0);

  const std::vector<double> inverted{0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(roc_auc(inverted, labels), 0.0);

  const std::vector<double> constant{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(roc_auc(constant, labels), 0.5);
}

TEST(RocAuc, TiesHandledByMidrank) {
  const std::vector<double> scores{0.1, 0.5, 0.5, 0.9};
  const std::vector<int> labels{0, 0, 1, 1};
  // pairs: (0.1 vs 0.5)=win,(0.1 vs 0.9)=win,(0.5 vs 0.5)=tie,(0.5 vs 0.9)=win
  // AUC = (3 + 0.5)/4
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 3.5 / 4.0);
}

TEST(OperatingPointTest, ThresholdSweepTradesPrecisionRecall) {
  // Scores where high threshold is precise but misses positives.
  std::vector<double> scores;
  std::vector<int> labels;
  Rng rng(54);
  for (int i = 0; i < 2000; ++i) {
    const bool pos = rng.chance(0.3);
    scores.push_back(pos ? rng.uniform(0.4, 1.0) : rng.uniform(0.0, 0.6));
    labels.push_back(pos ? 1 : 0);
  }
  const auto loose = operating_point(scores, labels, 0.45);
  const auto strict = operating_point(scores, labels, 0.9);
  EXPECT_GT(strict.precision, loose.precision);
  EXPECT_LT(strict.recall, loose.recall);
  EXPECT_LT(strict.fpr, loose.fpr);
  EXPECT_DOUBLE_EQ(strict.precision, 1.0);  // >0.6 is pure positive
}

TEST(Dataset, CsvExportRoundShape) {
  Dataset d({"alpha", "beta"}, {"neg", "pos"});
  const double r0[2] = {1.5, -2.0};
  const double r1[2] = {3.25, 0.0};
  d.add(r0, 0);
  d.add(r1, 1);
  std::ostringstream out;
  d.to_csv(out);
  const auto text = out.str();
  EXPECT_NE(text.find("alpha,beta,label"), std::string::npos);
  EXPECT_NE(text.find("1.5,-2,neg"), std::string::npos);
  EXPECT_NE(text.find("3.25,0,pos"), std::string::npos);
  // Exactly header + 2 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Calibration, BinsCoverAllPredictions) {
  auto data = two_blob_dataset(300, 2.0, 55);
  ForestConfig cfg;
  cfg.n_trees = 15;
  RandomForest forest(cfg);
  forest.fit(data);
  const auto bins = calibration_bins(forest, data, 10);
  std::uint64_t total = 0;
  for (const auto& b : bins) {
    total += b.count;
    if (b.count > 0) {
      EXPECT_GE(b.mean_confidence, 0.0);
      EXPECT_LE(b.mean_confidence, 1.0);
    }
  }
  EXPECT_EQ(total, data.n_rows());
}

}  // namespace
}  // namespace campuslab::ml
