#include "datacube/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "datacube/expression.hpp"

namespace climate::datacube {

Result<ReduceOp> parse_reduce_op(const std::string& name) {
  if (name == "max") return ReduceOp::kMax;
  if (name == "min") return ReduceOp::kMin;
  if (name == "sum") return ReduceOp::kSum;
  if (name == "avg" || name == "mean") return ReduceOp::kAvg;
  if (name == "std") return ReduceOp::kStd;
  if (name == "count") return ReduceOp::kCount;
  return Status::InvalidArgument("unknown reduce operation '" + name + "'");
}

Result<InterOp> parse_inter_op(const std::string& name) {
  if (name == "add") return InterOp::kAdd;
  if (name == "sub") return InterOp::kSub;
  if (name == "mul") return InterOp::kMul;
  if (name == "div") return InterOp::kDiv;
  if (name == "mask") return InterOp::kMask;
  return Status::InvalidArgument("unknown intercube operation '" + name + "'");
}

namespace engine {
namespace {

// Reduction accumulators: start() takes a group's first element, add() the
// rest in order, finish() the group's element count. These are the
// operations, in the order, of a plain per-row loop.
struct MaxAcc {
  float m;
  void start(float v) { m = v; }
  void add(float v) { m = std::max(m, v); }
  float finish(std::size_t) const { return m; }
};

struct MinAcc {
  float m;
  void start(float v) { m = v; }
  void add(float v) { m = std::min(m, v); }
  float finish(std::size_t) const { return m; }
};

struct SumAcc {
  double s;
  void start(float v) { s = 0.0 + v; }
  void add(float v) { s += v; }
  float finish(std::size_t) const { return static_cast<float>(s); }
};

struct AvgAcc : SumAcc {
  float finish(std::size_t n) const { return static_cast<float>(s / static_cast<double>(n)); }
};

struct StdAcc {
  double s, s2;
  void start(float v) {
    s = 0.0 + v;
    s2 = 0.0 + static_cast<double>(v) * v;
  }
  void add(float v) {
    s += v;
    s2 += static_cast<double>(v) * v;
  }
  float finish(std::size_t n) const {
    const double mean = s / static_cast<double>(n);
    const double var = std::max(0.0, s2 / static_cast<double>(n) - mean * mean);
    return static_cast<float>(std::sqrt(var));
  }
};

struct CountAcc {
  void start(float) {}
  void add(float) {}
  float finish(std::size_t n) const { return static_cast<float>(n); }
};

// Reduces kRows consecutive rows group by group, one accumulator per row:
// the rows' chains are independent, so their adds overlap.
template <class Acc, std::size_t kRows>
void reduce_block(const float* src, std::size_t alen, std::size_t group_size, std::size_t out_len,
                  float* dst) {
  for (std::size_t g = 0; g < out_len; ++g) {
    const std::size_t begin = g * group_size;
    const std::size_t end = std::min(alen, begin + group_size);
    Acc acc[kRows] = {};
    for (std::size_t r = 0; r < kRows; ++r) acc[r].start(src[r * alen + begin]);
    for (std::size_t i = begin + 1; i < end; ++i) {
      for (std::size_t r = 0; r < kRows; ++r) acc[r].add(src[r * alen + i]);
    }
    for (std::size_t r = 0; r < kRows; ++r) dst[r * out_len + g] = acc[r].finish(end - begin);
  }
}

template <class Acc>
void reduce_rows(const float* src, std::size_t rows, std::size_t alen, std::size_t group_size,
                 std::size_t out_len, float* dst) {
  constexpr std::size_t kBlock = 8;
  std::size_t r = 0;
  for (; r + kBlock <= rows; r += kBlock) {
    reduce_block<Acc, kBlock>(src + r * alen, alen, group_size, out_len, dst + r * out_len);
  }
  for (; r < rows; ++r) {
    reduce_block<Acc, 1>(src + r * alen, alen, group_size, out_len, dst + r * out_len);
  }
}

// out[i] = f(x[i], y[i]) over count elements.
template <class F>
void elementwise(const float* __restrict x, const float* __restrict y, float* __restrict out,
                 std::size_t count, F f) {
  for (std::size_t i = 0; i < count; ++i) out[i] = f(x[i], y[i]);
}

void combine(InterOp op, const float* x, const float* y, float* out, std::size_t n) {
  switch (op) {
    case InterOp::kAdd: return elementwise(x, y, out, n, [](float p, float q) { return p + q; });
    case InterOp::kSub: return elementwise(x, y, out, n, [](float p, float q) { return p - q; });
    case InterOp::kMul: return elementwise(x, y, out, n, [](float p, float q) { return p * q; });
    case InterOp::kDiv:
      // Division by zero yields 0; the quotient is computed either way so the
      // select vectorises.
      return elementwise(x, y, out, n, [](float p, float q) {
        const float r = p / q;
        return q == 0.0f ? 0.0f : r;
      });
    case InterOp::kMask:
      return elementwise(x, y, out, n, [](float p, float q) { return q > 0.0f ? p : 0.0f; });
  }
}

}  // namespace

Result<CubeData> reduce(const CubeData& src, ReduceOp op, std::size_t group_size,
                        const std::string& description, const ParallelRunner& run) {
  const std::size_t alen = src.array_length();
  if (group_size == 0) group_size = alen;
  const std::size_t out_len = (alen + group_size - 1) / group_size;

  CubeData out;
  out.measure = src.measure;
  out.description = description.empty() ? "reduce" : description;
  out.explicit_dims = src.explicit_dims;
  out.implicit_dim = DimInfo{src.implicit_dim.name, out_len, {}};
  if (out_len == alen) out.implicit_dim.coords = src.implicit_dim.coords;
  out.fragments.resize(src.fragments.size());

  run(src.fragments.size(), [&](std::size_t f) {
    const Fragment& in_frag = src.fragments[f];
    Fragment& out_frag = out.fragments[f];
    out_frag.row_start = in_frag.row_start;
    out_frag.row_count = in_frag.row_count;
    out_frag.server = in_frag.server;
    out_frag.values.resize(in_frag.row_count * out_len);
    const float* rows = in_frag.values.data();
    float* dst = out_frag.values.data();
    const std::size_t n = in_frag.row_count;
    switch (op) {
      case ReduceOp::kMax: return reduce_rows<MaxAcc>(rows, n, alen, group_size, out_len, dst);
      case ReduceOp::kMin: return reduce_rows<MinAcc>(rows, n, alen, group_size, out_len, dst);
      case ReduceOp::kSum: return reduce_rows<SumAcc>(rows, n, alen, group_size, out_len, dst);
      case ReduceOp::kAvg: return reduce_rows<AvgAcc>(rows, n, alen, group_size, out_len, dst);
      case ReduceOp::kStd: return reduce_rows<StdAcc>(rows, n, alen, group_size, out_len, dst);
      case ReduceOp::kCount: return reduce_rows<CountAcc>(rows, n, alen, group_size, out_len, dst);
    }
  });
  return out;
}

Result<CubeData> apply(const CubeData& src, const std::string& expression,
                       const std::string& description, const ParallelRunner& run) {
  auto expr = Expression::parse(expression);
  if (!expr.ok()) return expr.status();

  const std::size_t alen = src.array_length();
  const std::size_t out_len = expr->output_length(alen);
  if (out_len == 0) return Status::InvalidArgument("expression produces empty output");

  CubeData out;
  out.measure = src.measure;
  out.description = description.empty() ? "apply(" + expression + ")" : description;
  out.explicit_dims = src.explicit_dims;
  out.implicit_dim = DimInfo{src.implicit_dim.name, out_len, {}};
  if (out_len == alen) out.implicit_dim.coords = src.implicit_dim.coords;
  out.fragments.resize(src.fragments.size());

  run(src.fragments.size(), [&](std::size_t f) {
    const Fragment& in_frag = src.fragments[f];
    Fragment& out_frag = out.fragments[f];
    out_frag.row_start = in_frag.row_start;
    out_frag.row_count = in_frag.row_count;
    out_frag.server = in_frag.server;
    out_frag.values.resize(in_frag.row_count * out_len);
    std::vector<float> scratch(expr->scratch_size(alen));
    for (std::size_t r = 0; r < in_frag.row_count; ++r) {
      expr->eval_row(in_frag.values.data() + r * alen, alen, out_frag.values.data() + r * out_len,
                     scratch.data());
    }
  });
  return out;
}

Result<CubeData> intercube(const CubeData& a, const CubeData& b, InterOp op,
                           const std::string& description, const ParallelRunner& run) {
  if (a.row_count() != b.row_count() || a.array_length() != b.array_length()) {
    return Status::InvalidArgument("intercube: shape mismatch (" + std::to_string(a.row_count()) +
                                   "x" + std::to_string(a.array_length()) + " vs " +
                                   std::to_string(b.row_count()) + "x" +
                                   std::to_string(b.array_length()) + ")");
  }
  const std::size_t alen = a.array_length();

  CubeData out;
  out.measure = a.measure;
  out.description = description.empty() ? "intercube" : description;
  out.explicit_dims = a.explicit_dims;
  out.implicit_dim = a.implicit_dim;
  out.fragments.resize(a.fragments.size());

  run(a.fragments.size(), [&](std::size_t f) {
    const Fragment& in_frag = a.fragments[f];
    Fragment& out_frag = out.fragments[f];
    out_frag.row_start = in_frag.row_start;
    out_frag.row_count = in_frag.row_count;
    out_frag.server = in_frag.server;
    out_frag.values.resize(in_frag.values.size());
    if (in_frag.row_count == 0) return;
    // Read b in place, fragment by fragment over this fragment's rows: b may
    // be fragmented differently. Start at b's last fragment beginning at or
    // before row_start.
    auto bf = std::upper_bound(
        b.fragments.begin(), b.fragments.end(), in_frag.row_start,
        [](std::size_t row, const Fragment& g) { return row < g.row_start; });
    --bf;
    const std::size_t end = in_frag.row_start + in_frag.row_count;
    for (std::size_t row = in_frag.row_start; row < end; ++bf) {
      const std::size_t stop = std::min(end, bf->row_start + bf->row_count);
      const std::size_t offset = (row - in_frag.row_start) * alen;
      combine(op, in_frag.values.data() + offset,
              bf->values.data() + (row - bf->row_start) * alen, out_frag.values.data() + offset,
              (stop - row) * alen);
      row = stop;
    }
  });
  return out;
}

Result<CubeData> subset(const CubeData& src, const std::string& dim_name, std::size_t start,
                        std::size_t end, const std::string& description, std::size_t nservers) {
  if (end < start) return Status::InvalidArgument("subset: end < start");

  const std::vector<float> dense = src.to_dense();
  const std::size_t alen = src.array_length();

  auto slice_coords = [&](const DimInfo& dim) {
    DimInfo out{dim.name, end - start + 1, {}};
    if (!dim.coords.empty()) {
      out.coords.assign(dim.coords.begin() + static_cast<long>(start),
                        dim.coords.begin() + static_cast<long>(end) + 1);
    }
    return out;
  };

  if (src.implicit_dim.name == dim_name) {
    if (end >= alen) return Status::OutOfRange("subset: index past implicit dimension");
    const std::size_t new_len = end - start + 1;
    std::vector<float> out_dense(src.row_count() * new_len);
    for (std::size_t r = 0; r < src.row_count(); ++r) {
      std::memcpy(out_dense.data() + r * new_len, dense.data() + r * alen + start,
                  new_len * sizeof(float));
    }
    CubeData out = cube_from_dense(src.measure, src.explicit_dims, slice_coords(src.implicit_dim),
                                   out_dense, nservers, nservers);
    out.description = description.empty() ? "subset(" + dim_name + ")" : description;
    return out;
  }

  // Explicit dimension subset: select rows whose index on dim_name lies in
  // [start, end].
  std::size_t dim_index = src.explicit_dims.size();
  for (std::size_t d = 0; d < src.explicit_dims.size(); ++d) {
    if (src.explicit_dims[d].name == dim_name) dim_index = d;
  }
  if (dim_index == src.explicit_dims.size()) {
    return Status::NotFound("subset: no dimension '" + dim_name + "'");
  }
  if (end >= src.explicit_dims[dim_index].size) {
    return Status::OutOfRange("subset: index past dimension '" + dim_name + "'");
  }

  std::vector<DimInfo> out_dims = src.explicit_dims;
  out_dims[dim_index] = slice_coords(src.explicit_dims[dim_index]);

  std::size_t out_rows = 1;
  for (const DimInfo& d : out_dims) out_rows *= d.size;
  std::vector<float> out_dense(out_rows * alen);

  // Row-major walk over the output index space, mapping back to source rows.
  std::vector<std::size_t> src_strides(src.explicit_dims.size(), 1);
  for (std::size_t d = src.explicit_dims.size(); d-- > 1;) {
    src_strides[d - 1] = src_strides[d] * src.explicit_dims[d].size;
  }
  std::vector<std::size_t> idx(out_dims.size(), 0);
  for (std::size_t out_row = 0; out_row < out_rows; ++out_row) {
    std::size_t src_row = 0;
    for (std::size_t d = 0; d < out_dims.size(); ++d) {
      const std::size_t src_idx = d == dim_index ? idx[d] + start : idx[d];
      src_row += src_idx * src_strides[d];
    }
    std::memcpy(out_dense.data() + out_row * alen, dense.data() + src_row * alen,
                alen * sizeof(float));
    for (std::size_t d = out_dims.size(); d-- > 0;) {
      if (++idx[d] < out_dims[d].size) break;
      idx[d] = 0;
    }
  }
  CubeData out = cube_from_dense(src.measure, std::move(out_dims), src.implicit_dim, out_dense,
                                 nservers, nservers);
  out.description = description.empty() ? "subset(" + dim_name + ")" : description;
  return out;
}

Result<CubeData> merge(const CubeData& a, const CubeData& b, const std::string& description,
                       std::size_t nservers) {
  if (a.explicit_dims.empty() || b.explicit_dims.empty()) {
    return Status::InvalidArgument("merge: cubes need an explicit dimension");
  }
  if (a.explicit_dims.size() != b.explicit_dims.size() || a.array_length() != b.array_length()) {
    return Status::InvalidArgument("merge: schema mismatch");
  }
  for (std::size_t d = 1; d < a.explicit_dims.size(); ++d) {
    if (a.explicit_dims[d].size != b.explicit_dims[d].size) {
      return Status::InvalidArgument("merge: inner dimension size mismatch");
    }
  }

  std::vector<DimInfo> out_dims = a.explicit_dims;
  out_dims[0].size += b.explicit_dims[0].size;
  out_dims[0].coords.clear();
  if (!a.explicit_dims[0].coords.empty() && !b.explicit_dims[0].coords.empty()) {
    out_dims[0].coords = a.explicit_dims[0].coords;
    out_dims[0].coords.insert(out_dims[0].coords.end(), b.explicit_dims[0].coords.begin(),
                              b.explicit_dims[0].coords.end());
  }
  std::vector<float> dense = a.to_dense();
  const std::vector<float> b_dense = b.to_dense();
  dense.insert(dense.end(), b_dense.begin(), b_dense.end());

  CubeData out =
      cube_from_dense(a.measure, std::move(out_dims), a.implicit_dim, dense, nservers, nservers);
  out.description = description.empty() ? "merge" : description;
  return out;
}

Result<CubeData> concat_implicit(const CubeData& a, const CubeData& b,
                                 const std::string& description, std::size_t nservers) {
  if (a.row_count() != b.row_count() || a.explicit_dims.size() != b.explicit_dims.size()) {
    return Status::InvalidArgument("concat_implicit: explicit dimension mismatch");
  }
  for (std::size_t d = 0; d < a.explicit_dims.size(); ++d) {
    if (a.explicit_dims[d].size != b.explicit_dims[d].size) {
      return Status::InvalidArgument("concat_implicit: explicit dimension size mismatch");
    }
  }
  const std::size_t alen_a = a.array_length();
  const std::size_t alen_b = b.array_length();
  const std::vector<float> dense_a = a.to_dense();
  const std::vector<float> dense_b = b.to_dense();
  const std::size_t rows = a.row_count();
  std::vector<float> out_dense(rows * (alen_a + alen_b));
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(out_dense.data() + r * (alen_a + alen_b), dense_a.data() + r * alen_a,
                alen_a * sizeof(float));
    std::memcpy(out_dense.data() + r * (alen_a + alen_b) + alen_a, dense_b.data() + r * alen_b,
                alen_b * sizeof(float));
  }
  DimInfo implicit = a.implicit_dim;
  implicit.size = alen_a + alen_b;
  if (!a.implicit_dim.coords.empty() && !b.implicit_dim.coords.empty()) {
    implicit.coords = a.implicit_dim.coords;
    implicit.coords.insert(implicit.coords.end(), b.implicit_dim.coords.begin(),
                           b.implicit_dim.coords.end());
  } else {
    implicit.coords.clear();
  }
  CubeData out = cube_from_dense(a.measure, a.explicit_dims, std::move(implicit), out_dense,
                                 nservers, nservers);
  out.description = description.empty() ? "concat_implicit" : description;
  return out;
}

Result<CubeData> aggregate(const CubeData& src, const std::string& dim_name, ReduceOp op,
                           const std::string& description, std::size_t nservers) {
  std::size_t dim_index = src.explicit_dims.size();
  for (std::size_t d = 0; d < src.explicit_dims.size(); ++d) {
    if (src.explicit_dims[d].name == dim_name) dim_index = d;
  }
  if (dim_index == src.explicit_dims.size()) {
    return Status::NotFound("aggregate: no explicit dimension '" + dim_name + "'");
  }

  const std::size_t alen = src.array_length();
  const std::vector<float> dense = src.to_dense();

  // Output dims: the collapsed one removed.
  std::vector<DimInfo> out_dims;
  for (std::size_t d = 0; d < src.explicit_dims.size(); ++d) {
    if (d != dim_index) out_dims.push_back(src.explicit_dims[d]);
  }
  std::size_t out_rows = 1;
  for (const DimInfo& d : out_dims) out_rows *= d.size;
  const std::size_t collapse_n = src.explicit_dims[dim_index].size;

  // Strides of the source row index space.
  std::vector<std::size_t> strides(src.explicit_dims.size(), 1);
  for (std::size_t d = src.explicit_dims.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * src.explicit_dims[d].size;
  }

  // Accumulators per output row per array position.
  std::vector<double> sum(out_rows * alen, 0.0);
  std::vector<double> sum_sq(op == ReduceOp::kStd ? out_rows * alen : 0, 0.0);
  std::vector<float> extreme(out_rows * alen,
                             op == ReduceOp::kMax ? -std::numeric_limits<float>::infinity()
                                                  : std::numeric_limits<float>::infinity());

  std::vector<std::size_t> idx(src.explicit_dims.size(), 0);
  const std::size_t src_rows = src.row_count();
  for (std::size_t row = 0; row < src_rows; ++row) {
    // Output row index: strip dim_index from the multi-index.
    std::size_t out_row = 0;
    for (std::size_t d = 0; d < src.explicit_dims.size(); ++d) {
      if (d == dim_index) continue;
      out_row = out_row * src.explicit_dims[d].size + idx[d];
    }
    const float* src_values = dense.data() + row * alen;
    for (std::size_t k = 0; k < alen; ++k) {
      const std::size_t o = out_row * alen + k;
      const float v = src_values[k];
      sum[o] += v;
      if (op == ReduceOp::kStd) sum_sq[o] += static_cast<double>(v) * v;
      if (op == ReduceOp::kMax) extreme[o] = std::max(extreme[o], v);
      if (op == ReduceOp::kMin) extreme[o] = std::min(extreme[o], v);
    }
    for (std::size_t d = src.explicit_dims.size(); d-- > 0;) {
      if (++idx[d] < src.explicit_dims[d].size) break;
      idx[d] = 0;
    }
  }

  std::vector<float> out_dense(out_rows * alen);
  for (std::size_t o = 0; o < out_dense.size(); ++o) {
    switch (op) {
      case ReduceOp::kSum: out_dense[o] = static_cast<float>(sum[o]); break;
      case ReduceOp::kAvg: out_dense[o] = static_cast<float>(sum[o] / collapse_n); break;
      case ReduceOp::kMax:
      case ReduceOp::kMin: out_dense[o] = extreme[o]; break;
      case ReduceOp::kCount: out_dense[o] = static_cast<float>(collapse_n); break;
      case ReduceOp::kStd: {
        const double mean = sum[o] / collapse_n;
        const double var = std::max(0.0, sum_sq[o] / collapse_n - mean * mean);
        out_dense[o] = static_cast<float>(std::sqrt(var));
        break;
      }
    }
  }
  if (out_dims.empty()) out_dims.push_back({"scalar", 1, {}});
  CubeData out = cube_from_dense(src.measure, std::move(out_dims), src.implicit_dim, out_dense,
                                 nservers, nservers);
  out.description = description.empty() ? "aggregate(" + dim_name + ")" : description;
  return out;
}

}  // namespace engine
}  // namespace climate::datacube
