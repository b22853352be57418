#include "hpcwaas/tosca.hpp"

#include <cmath>
#include <limits>
#include <set>

#include "common/strings.hpp"
#include "hpcwaas/yaml.hpp"

namespace climate::hpcwaas {

Result<NodeKind> parse_node_kind(const std::string& type_name) {
  if (type_name.find("Compute") != std::string::npos) return NodeKind::kCompute;
  if (type_name.find("Software") != std::string::npos) return NodeKind::kSoftware;
  if (type_name.find("DataPipeline") != std::string::npos ||
      type_name.find("DLS") != std::string::npos) {
    return NodeKind::kDataPipeline;
  }
  if (type_name.find("Workflow") != std::string::npos || type_name.find("PyCOMPSs") != std::string::npos) {
    return NodeKind::kWorkflow;
  }
  return Status::InvalidArgument("unknown TOSCA node type '" + type_name + "'");
}

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kCompute: return "compute";
    case NodeKind::kSoftware: return "software";
    case NodeKind::kDataPipeline: return "data_pipeline";
    case NodeKind::kWorkflow: return "workflow";
  }
  return "?";
}

const NodeTemplate* Topology::find(const std::string& node_name) const {
  for (const NodeTemplate& node : nodes) {
    if (node.name == node_name) return &node;
  }
  return nullptr;
}

Result<std::vector<std::string>> Topology::deployment_order() const {
  // Kahn's algorithm over host + depends edges.
  std::map<std::string, std::set<std::string>> deps;
  for (const NodeTemplate& node : nodes) {
    auto& d = deps[node.name];
    if (!node.host.empty()) d.insert(node.host);
    for (const std::string& dep : node.depends_on) d.insert(dep);
  }
  std::vector<std::string> order;
  std::set<std::string> placed;
  while (order.size() < nodes.size()) {
    bool progressed = false;
    for (const NodeTemplate& node : nodes) {
      if (placed.count(node.name)) continue;
      bool ready = true;
      for (const std::string& dep : deps[node.name]) {
        if (!placed.count(dep)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(node.name);
        placed.insert(node.name);
        progressed = true;
      }
    }
    if (!progressed) {
      return Status::InvalidArgument("topology has a dependency cycle");
    }
  }
  return order;
}

namespace {

std::string json_to_property(const Json& value) {
  if (value.is_string()) return value.as_string();
  return value.dump();
}

}  // namespace

Status check_input(const TopologyInput& input, const Json& value) {
  const std::string& type = input.type;
  const double x = value.is_number() ? value.as_number() : 0.0;
  const bool finite = value.is_number() && std::isfinite(x);
  const bool ok = (type == "string" && value.is_string()) ||
                  (type == "boolean" && value.is_bool()) || (type == "float" && finite) ||
                  (type == "integer" && finite && x == std::trunc(x) &&
                   x >= std::numeric_limits<int>::min() && x <= std::numeric_limits<int>::max());
  if (ok) return Status::Ok();
  return Status::InvalidArgument("input '" + input.name + "' is not a valid " + type);
}

Result<Topology> topology_from_json(const Json& doc) {
  Topology topology;
  topology.name = doc.get_string("name", "unnamed-topology");
  topology.description = doc.get_string("description");

  const Json& inputs = doc["topology_template"]["inputs"];
  if (inputs.is_object()) {
    for (const auto& [name, spec] : inputs.as_object()) {
      TopologyInput input;
      input.name = name;
      input.type = spec.get_string("type", "string");
      input.required = spec.get_bool("required", false);
      input.default_value = spec["default"];
      if (!input.default_value.is_null()) {
        CLIMATE_RETURN_IF_ERROR(check_input(input, input.default_value));
      }
      topology.inputs.push_back(std::move(input));
    }
  }

  const Json& templates = doc["topology_template"]["node_templates"];
  if (!templates.is_object() || templates.size() == 0) {
    return Status::InvalidArgument("topology has no node_templates");
  }
  for (const auto& [name, spec] : templates.as_object()) {
    NodeTemplate node;
    node.name = name;
    node.type_name = spec.get_string("type");
    auto kind = parse_node_kind(node.type_name);
    if (!kind.ok()) return kind.status();
    node.kind = *kind;
    const Json& properties = spec["properties"];
    if (properties.is_object()) {
      for (const auto& [key, value] : properties.as_object()) {
        node.properties[key] = json_to_property(value);
      }
    }
    const Json& requirements = spec["requirements"];
    if (requirements.is_array()) {
      for (const Json& req : requirements.as_array()) {
        if (!req.is_object()) continue;
        for (const auto& [kind_name, target] : req.as_object()) {
          const std::string target_name =
              target.is_string() ? target.as_string() : target.get_string("node");
          if (kind_name == "host") {
            node.host = target_name;
          } else {
            node.depends_on.push_back(target_name);
          }
        }
      }
    }
    topology.nodes.push_back(std::move(node));
  }

  // Validate requirement targets.
  for (const NodeTemplate& node : topology.nodes) {
    if (!node.host.empty() && topology.find(node.host) == nullptr) {
      return Status::InvalidArgument("node '" + node.name + "' hosted on unknown node '" +
                                     node.host + "'");
    }
    for (const std::string& dep : node.depends_on) {
      if (topology.find(dep) == nullptr) {
        return Status::InvalidArgument("node '" + node.name + "' depends on unknown node '" + dep +
                                       "'");
      }
    }
  }
  // Validate acyclicity now so deployment can't fail later.
  auto order = topology.deployment_order();
  if (!order.ok()) return order.status();
  return topology;
}

Result<Topology> parse_topology(const std::string& yaml_text) {
  auto doc = parse_yaml(yaml_text);
  if (!doc.ok()) return doc.status();
  return topology_from_json(*doc);
}

}  // namespace climate::hpcwaas
