#include "taskrt/trace.hpp"

namespace climate::taskrt {

std::map<std::string, std::size_t> Trace::counts_by_name() const {
  std::map<std::string, std::size_t> counts;
  for (const TaskTrace& t : tasks_) ++counts[t.name];
  return counts;
}

std::size_t Trace::edge_count() const {
  std::size_t edges = 0;
  for (const TaskTrace& t : tasks_) edges += t.deps.size();
  return edges;
}

}  // namespace climate::taskrt
