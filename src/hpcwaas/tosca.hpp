// TOSCA-like topology model (the extended-TOSCA application descriptions the
// developer authors in Alien4Cloud, paper section 4.1/5.1 step 1): node
// templates with types, properties and host/depends requirements, plus
// workflow input declarations. Parsed from the YAML subset and validated
// (known types, resolvable requirements, acyclic dependencies).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"

namespace climate::hpcwaas {

using common::Json;
using common::Result;
using common::Status;

/// The node-template kinds the orchestrator understands.
enum class NodeKind {
  kCompute,      ///< An HPC allocation target (cluster/partition).
  kSoftware,     ///< A software environment (built as a container image).
  kDataPipeline, ///< A Data Logistics Service pipeline.
  kWorkflow,     ///< The workflow application itself.
};

Result<NodeKind> parse_node_kind(const std::string& type_name);
const char* node_kind_name(NodeKind kind);

/// One node template.
struct NodeTemplate {
  std::string name;
  NodeKind kind = NodeKind::kSoftware;
  std::string type_name;                        ///< Original TOSCA type string.
  std::map<std::string, std::string> properties;
  std::string host;                             ///< Requirement: hosted on.
  std::vector<std::string> depends_on;          ///< Requirement: depends on.
};

/// A workflow input declaration.
struct TopologyInput {
  std::string name;
  /// One of the TOSCA types string, integer, float or boolean.
  std::string type = "string";
  Json default_value;  ///< Of the declared type; null when there is none.
  bool required = false;
};

/// OK when `value` is of `input`'s declared type: an integer is a finite,
/// integral number inside int, a float a finite number. INVALID_ARGUMENT
/// otherwise, and for every value of a type that is not one of the four.
Status check_input(const TopologyInput& input, const Json& value);

/// A parsed, validated topology.
struct Topology {
  std::string name;
  std::string description;
  std::vector<NodeTemplate> nodes;
  std::vector<TopologyInput> inputs;

  const NodeTemplate* find(const std::string& node_name) const;
  /// Node names in dependency order (hosts/dependencies first).
  Result<std::vector<std::string>> deployment_order() const;
};

/// Parses a topology from YAML text and validates it.
Result<Topology> parse_topology(const std::string& yaml_text);

/// Parses from an already-parsed Json tree.
Result<Topology> topology_from_json(const Json& doc);

}  // namespace climate::hpcwaas
