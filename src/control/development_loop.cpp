#include "campuslab/control/development_loop.h"

#include <chrono>

#include "campuslab/features/packet_features.h"
#include "campuslab/ml/metrics.h"
#include "campuslab/xai/rules.h"

namespace campuslab::control {

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Register-feature mask for the packet feature space (used when the
/// features are the per-packet ones; other feature spaces get no mask).
std::vector<bool> register_mask_for(
    const std::vector<std::string>& feature_names) {
  std::vector<bool> mask(feature_names.size(), false);
  if (feature_names == features::packet_feature_names()) {
    for (std::size_t f = 0; f < mask.size(); ++f)
      mask[f] = features::is_register_feature(
          static_cast<features::PacketFeature>(f));
  }
  return mask;
}

/// The student was trained on quantized values, so programs run with
/// the identity mapping over the quantized grid.
dataplane::Quantizer grid_quantizer_for(std::size_t n_features) {
  return dataplane::Quantizer::from_ranges(
      std::vector<std::pair<double, double>>(
          n_features,
          {0.0, static_cast<double>(dataplane::Quantizer::kMaxQ) + 1.0}));
}

}  // namespace

Result<TrainArtifacts> DevelopmentLoop::train(
    const ml::Dataset& packet_dataset) const {
  if (packet_dataset.n_classes() != 2)
    return Error::make("shape",
                       "development loop expects a binary dataset "
                       "(class 1 = task event)");
  const auto counts = packet_dataset.class_counts();
  if (counts[0] == 0 || counts[1] == 0)
    return Error::make("data", "dataset lacks one of the two classes");

  const std::int64_t t0 = now_us();
  // Quantize first so the trained thresholds live on the dataplane
  // grid: compiled verdicts are then exactly the student's.
  auto quantizer = dataplane::Quantizer::fit(packet_dataset);
  const auto quantized = quantizer.quantize_dataset(packet_dataset);
  Rng rng(config_.seed);
  auto [train_split, test_split] =
      quantized.stratified_split(config_.test_fraction, rng);

  // Step (i): black-box teacher (family per config).
  std::shared_ptr<ml::Classifier> teacher;
  std::size_t teacher_nodes = 0;
  if (config_.teacher_kind == TeacherKind::kGradientBoosted) {
    auto gbt = std::make_shared<ml::GradientBoosted>(
        config_.boosted_teacher);
    gbt->fit(train_split);
    teacher_nodes = gbt->total_nodes();
    teacher = std::move(gbt);
  } else {
    auto forest = std::make_shared<ml::RandomForest>(config_.teacher);
    forest->fit(train_split);
    teacher_nodes = forest->total_nodes();
    teacher = std::move(forest);
  }
  return TrainArtifacts{std::move(quantizer), std::move(train_split),
                        std::move(test_split), std::move(teacher),
                        teacher_nodes, now_us() - t0};
}

Result<ExtractArtifacts> DevelopmentLoop::extract(
    const TrainArtifacts& trained) const {
  if (trained.teacher == nullptr)
    return Error::make("internal", "extract called without a teacher");
  const std::int64_t t0 = now_us();
  // Step (ii): XAI extraction.
  auto extraction = xai::ModelExtractor(config_.extraction)
                        .extract(*trained.teacher, trained.train);
  return ExtractArtifacts{std::move(extraction.student), now_us() - t0};
}

Result<DeploymentPackage> DevelopmentLoop::compile(
    const TrainArtifacts& trained,
    const ExtractArtifacts& extracted) const {
  const std::int64_t t0 = now_us();
  DeploymentPackage package;
  package.task = config_.task;
  package.quantizer = trained.quantizer;
  package.student = extracted.student;
  package.timings.train_us = trained.train_us;
  package.timings.extract_us = extracted.extract_us;

  // Step (iii): compile for the target, honoring the budget.
  const auto mask = register_mask_for(trained.train.feature_names());
  const auto grid_quantizer =
      grid_quantizer_for(trained.train.n_features());

  const auto policy = package.policy();
  auto try_tree = [&]() -> Result<dataplane::ResourceReport> {
    auto program =
        dataplane::TreeProgram::compile(package.student, grid_quantizer,
                                        mask);
    if (!program.ok()) return program.error();
    const auto resources = program.value().resources();
    if (!resources.fits(config_.budget))
      return Error::make("budget", "tree program exceeds budget: " +
                                       resources.to_string());
    package.strategy = "tree_walk";
    package.p4_source = dataplane::generate_p4(
        program.value(), trained.train.feature_names(), policy);
    return resources;
  };
  auto try_tcam = [&]() -> Result<dataplane::ResourceReport> {
    const auto rules = xai::RuleList::from_tree(package.student);
    auto program = dataplane::RuleTcamProgram::compile(
        rules, grid_quantizer,
        config_.budget.tcam_entries_per_stage *
            static_cast<std::size_t>(config_.budget.stages),
        mask);
    if (!program.ok()) return program.error();
    const auto resources = program.value().resources();
    if (!resources.fits(config_.budget))
      return Error::make("budget", "tcam program exceeds budget: " +
                                       resources.to_string());
    package.strategy = "rule_tcam";
    package.p4_source = dataplane::generate_p4(
        program.value(), trained.train.feature_names(), policy);
    return resources;
  };

  Result<dataplane::ResourceReport> compiled =
      Error::make("internal", "no strategy attempted");
  switch (config_.strategy) {
    case CompileStrategy::kTreeWalk:
      compiled = try_tree();
      break;
    case CompileStrategy::kRuleTcam:
      compiled = try_tcam();
      break;
    case CompileStrategy::kAuto: {
      compiled = try_tree();
      if (!compiled.ok()) compiled = try_tcam();
      break;
    }
  }
  if (!compiled.ok()) return compiled.error();
  package.resources = compiled.value();
  package.timings.compile_us = now_us() - t0;

  // Step (iv): operator-facing evidence.
  package.trust = xai::make_trust_report(
      config_.task.name, *trained.teacher, trained.teacher_nodes,
      package.student, trained.test);
  package.teacher_holdout_accuracy = package.trust.teacher_accuracy;
  package.student_holdout_accuracy = package.trust.student_accuracy;
  package.holdout_fidelity = package.trust.fidelity;
  package.timings.total_us = package.timings.train_us +
                             package.timings.extract_us +
                             package.timings.compile_us;
  return package;
}

Result<DeploymentPackage> DevelopmentLoop::run(
    const ml::Dataset& packet_dataset) const {
  auto trained = train(packet_dataset);
  if (!trained.ok()) return trained.error();
  auto extracted = extract(trained.value());
  if (!extracted.ok()) return extracted.error();
  return compile(trained.value(), extracted.value());
}

namespace {

/// Per-class (correct, total) over a raw dataset through a package's
/// quantizer + student.
std::vector<std::pair<std::uint64_t, std::uint64_t>> per_class_hits(
    const DeploymentPackage& package, const ml::Dataset& raw) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hits(
      static_cast<std::size_t>(raw.n_classes()), {0, 0});
  std::vector<double> q(raw.n_features());
  for (std::size_t i = 0; i < raw.n_rows(); ++i) {
    const auto row = raw.row(i);
    for (std::size_t f = 0; f < q.size(); ++f)
      q[f] = static_cast<double>(package.quantizer.quantize(f, row[f]));
    const auto cls = static_cast<std::size_t>(raw.label(i));
    ++hits[cls].second;
    if (package.student.predict(q) == raw.label(i)) ++hits[cls].first;
  }
  return hits;
}

}  // namespace

double DeploymentPackage::balanced_accuracy_on(
    const ml::Dataset& raw) const {
  if (raw.n_rows() == 0) return 0.0;
  const auto hits = per_class_hits(*this, raw);
  double sum = 0.0;
  int populated = 0;
  for (const auto& [correct, total] : hits) {
    if (total == 0) continue;
    sum += static_cast<double>(correct) / static_cast<double>(total);
    ++populated;
  }
  return populated == 0 ? 0.0 : sum / populated;
}

Result<std::unique_ptr<dataplane::SoftwareSwitch>>
DeploymentPackage::instantiate() const {
  const auto mask = register_mask_for(student.feature_names());
  const auto grid_quantizer =
      grid_quantizer_for(student.feature_names().size());

  std::unique_ptr<dataplane::CompiledClassifier> program;
  if (strategy == "rule_tcam") {
    auto compiled = dataplane::RuleTcamProgram::compile(
        xai::RuleList::from_tree(student), grid_quantizer, 1 << 20, mask);
    if (!compiled.ok()) return compiled.error();
    program = std::make_unique<dataplane::RuleTcamProgram>(
        std::move(compiled).value());
  } else {
    auto compiled =
        dataplane::TreeProgram::compile(student, grid_quantizer, mask);
    if (!compiled.ok()) return compiled.error();
    program = std::make_unique<dataplane::TreeProgram>(
        std::move(compiled).value());
  }
  // The switch quantizes raw packet features with the fitted quantizer;
  // the program then compares them on the grid the student was trained
  // on.
  return std::make_unique<dataplane::SoftwareSwitch>(std::move(program),
                                                     quantizer);
}

}  // namespace campuslab::control
