// The datacube operator engine: the operator vocabulary (reduce/intercube
// enums and their parsers) and the pure fragment kernels behind every
// server operator. Kernels are free functions from immutable input cubes to
// a new CubeData — no catalog, no stats, no locks — so they can run from
// any session concurrently; fragment-parallel ones take a ParallelRunner
// that the server binds to its I/O-server pool. The serving concerns
// (catalog, admission, stats) live in server.{hpp,cpp}.
//
// Listing-1 fusion: elementwise operators (intercube, and apply of an
// elementwise expression) return a deferred cube, a Chain over the cubes
// they read, and touch no values. Every other operator is a fusion point:
// it evaluates its input's chain row by row into scratch rows and runs its
// own kernel on each row, so a chain's values are written out only when a
// caller asks for them (materialize). Nothing is cached: each reader
// evaluates the chain again.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datacube/cube.hpp"
#include "datacube/expression.hpp"

namespace climate::datacube {

/// Reduction operators over the implicit (array) dimension.
enum class ReduceOp { kMax, kMin, kSum, kAvg, kStd, kCount };

/// Parses "max"/"min"/"sum"/"avg"/"std"/"count".
Result<ReduceOp> parse_reduce_op(const std::string& name);

/// Element-wise binary cube operators.
enum class InterOp { kAdd, kSub, kMul, kDiv, kMask };

/// Parses "add"/"sub"/"mul"/"div"/"mask".
Result<InterOp> parse_inter_op(const std::string& name);

namespace engine {

/// The pending work of a deferred cube: `a`, or `a op b` when b is set, then
/// each step's program in order. The inputs are pinned here, so deleting
/// them from the catalog does not change the chain's values.
struct Chain {
  std::shared_ptr<const CubeData> a;  ///< First input, materialised or deferred.
  std::shared_ptr<const CubeData> b;  ///< Second intercube input, or null.
  InterOp op = InterOp::kAdd;         ///< Combines a and b when b is set.
  std::vector<Expression> steps;      ///< Elementwise programs.
};

/// Runs fn(i) for i in [0, count); the server binds this to its pool.
using ParallelRunner =
    std::function<void(std::size_t count, const std::function<void(std::size_t)>& fn)>;

/// Reduces the implicit dimension; group_size 0 collapses the whole array.
/// A deferred src is evaluated row by row into the reduction. An empty
/// implicit dimension is INVALID_ARGUMENT.
Result<CubeData> reduce(const CubeData& src, ReduceOp op, std::size_t group_size,
                        const std::string& description, const ParallelRunner& run);

/// Applies an array expression per row. An elementwise expression returns a
/// deferred cube (src's chain plus one step); any other expression is
/// evaluated row by row over src's chain into a materialised cube.
Result<CubeData> apply(const std::shared_ptr<const CubeData>& src, const std::string& expression,
                       const std::string& description, const ParallelRunner& run);

/// Element-wise binary operator between two shape-identical cubes: a
/// deferred cube with a's fragment layout.
Result<CubeData> intercube(const std::shared_ptr<const CubeData>& a,
                           const std::shared_ptr<const CubeData>& b, InterOp op,
                           const std::string& description);

/// The cube with its values held: src itself when materialised, else its
/// chain evaluated into a new cube with the same layout.
std::shared_ptr<const CubeData> materialize(const std::shared_ptr<const CubeData>& src,
                                            const ParallelRunner& run);

/// Elements a full read of `cube` takes from held values: its own when
/// materialised, its chain inputs' when deferred.
std::size_t source_elements(const CubeData& cube);

}  // namespace engine
}  // namespace climate::datacube
