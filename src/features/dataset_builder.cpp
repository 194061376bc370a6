#include "campuslab/features/dataset_builder.h"

namespace campuslab::features {

using packet::TrafficLabel;

std::vector<std::string> dataset_class_names(
    const FlowDatasetOptions& opt) {
  if (opt.binary_target) {
    return {"rest", std::string(to_string(*opt.binary_target))};
  }
  if (opt.attack_vs_benign) return {"benign", "attack"};
  std::vector<std::string> names;
  names.reserve(packet::kTrafficLabelCount);
  for (std::size_t i = 0; i < packet::kTrafficLabelCount; ++i)
    names.emplace_back(to_string(static_cast<TrafficLabel>(i)));
  return names;
}

int dataset_label(TrafficLabel label, const FlowDatasetOptions& opt) {
  if (opt.binary_target) return label == *opt.binary_target ? 1 : 0;
  if (opt.attack_vs_benign) return is_attack(label) ? 1 : 0;
  return static_cast<int>(label);
}

namespace {

ml::Dataset build_from_flows(std::span<const capture::FlowRecord> flows,
                             const FlowDatasetOptions& opt,
                             std::vector<std::uint32_t>* scenario_ids) {
  ml::Dataset data(flow_feature_names(), dataset_class_names(opt));
  if (scenario_ids != nullptr) {
    scenario_ids->clear();
    scenario_ids->reserve(flows.size());
  }
  for (const auto& flow : flows) {
    const auto x = extract_flow_features(flow);
    data.add(x, dataset_label(flow.majority_label(), opt));
    if (scenario_ids != nullptr) scenario_ids->push_back(flow.scenario_id);
  }
  return data;
}

ml::Dataset build_from_store(const store::DataStore& store,
                             const FlowDatasetOptions& opt,
                             std::vector<std::uint32_t>* scenario_ids) {
  ml::Dataset data(flow_feature_names(), dataset_class_names(opt));
  if (scenario_ids != nullptr) scenario_ids->clear();
  for (auto cur = store.open_cursor(store::FlowQuery{}); cur.next();) {
    const auto& flow = cur.current().flow;
    const auto x = extract_flow_features(flow);
    data.add(x, dataset_label(flow.majority_label(), opt));
    if (scenario_ids != nullptr) scenario_ids->push_back(flow.scenario_id);
  }
  return data;
}

}  // namespace

ml::Dataset build_flow_dataset(std::span<const capture::FlowRecord> flows,
                               const FlowDatasetOptions& opt) {
  return build_from_flows(flows, opt, nullptr);
}

ml::Dataset build_flow_dataset(const store::DataStore& store,
                               const FlowDatasetOptions& opt) {
  return build_from_store(store, opt, nullptr);
}

ml::Dataset build_flow_dataset(std::span<const capture::FlowRecord> flows,
                               const FlowDatasetOptions& opt,
                               std::vector<std::uint32_t>& scenario_ids) {
  return build_from_flows(flows, opt, &scenario_ids);
}

ml::Dataset build_flow_dataset(const store::DataStore& store,
                               const FlowDatasetOptions& opt,
                               std::vector<std::uint32_t>& scenario_ids) {
  return build_from_store(store, opt, &scenario_ids);
}

}  // namespace campuslab::features
