#include "datacube/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "obs/obs.hpp"

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

// Reads a cube's rows: a materialised cube's in place, a deferred cube's
// evaluated from its chain through scratch rows this reader owns. One reader
// per fragment task.
class RowReader {
 public:
  explicit RowReader(const CubeData& cube) : cube_(cube), alen_(cube.array_length()) {
    if (!cube.deferred()) return;
    const Chain& chain = *cube.chain;
    a_ = std::make_unique<RowReader>(*chain.a);
    if (chain.b) b_ = std::make_unique<RowReader>(*chain.b);
    std::size_t step_scratch = 0;
    for (const Expression& step : chain.steps) {
      step_scratch = std::max(step_scratch, step.scratch_size(alen_));
    }
    // a's row, b's row, two stage outputs, then the steps' scratch.
    scratch_.resize(4 * alen_ + step_scratch);
  }

  /// Rows [r, r + count), count >= 1, at stride array_length: in place for a
  /// materialised cube (they must lie in one fragment), else evaluated into
  /// dst.
  const float* rows(std::size_t r, std::size_t count, float* dst) {
    if (!cube_.deferred()) return in_place(r);
    for (std::size_t i = 0; i < count; ++i) evaluate(r + i, dst + i * alen_);
    return dst;
  }

 private:
  const float* in_place(std::size_t r) {
    const std::vector<Fragment>& frags = cube_.fragments;
    if (frag_ >= frags.size() || r < frags[frag_].row_start ||
        r - frags[frag_].row_start >= frags[frag_].row_count) {
      // The last fragment starting at or before r holds it: an empty
      // fragment is followed by one with the same start.
      const auto it = std::upper_bound(
          frags.begin(), frags.end(), r,
          [](std::size_t row, const Fragment& frag) { return row < frag.row_start; });
      frag_ = static_cast<std::size_t>(it - frags.begin()) - 1;
    }
    const Fragment& frag = frags[frag_];
    return frag.values.data() + (r - frag.row_start) * alen_;
  }

  // Row r of the chain into dst: a op b, then each step, alternating between
  // two stage rows and ending in dst, so no stage writes a row it reads.
  void evaluate(std::size_t r, float* dst) {
    const Chain& chain = *cube_.chain;
    float* const a_row = scratch_.data();
    float* const b_row = a_row + alen_;
    float* const stage_rows[2] = {b_row + alen_, b_row + 2 * alen_};
    float* const step_scratch = b_row + 3 * alen_;
    const std::size_t stages = (b_ ? 1 : 0) + chain.steps.size();
    std::size_t stage = 0;
    auto next_out = [&] { return ++stage == stages ? dst : stage_rows[stage % 2]; };

    const float* x = a_->rows(r, 1, a_row);
    if (b_) {
      float* out = next_out();
      combine(chain.op, x, b_->rows(r, 1, b_row), out, alen_);
      x = out;
    }
    for (const Expression& step : chain.steps) {
      float* out = next_out();
      step.eval_rows(x, 1, alen_, out, step_scratch);
      x = out;
    }
  }

  const CubeData& cube_;
  const std::size_t alen_;
  std::size_t frag_ = 0;  // in_place's cursor
  std::unique_ptr<RowReader> a_, b_;
  std::vector<float> scratch_;
};

// Runs fn over src's fragments. Reading a deferred cube evaluates its chain;
// the trace shows that as a "materialize" span inside the operator's.
void read_fragments(const CubeData& src, const ParallelRunner& run,
                    const std::function<void(std::size_t)>& fn) {
  if (!src.deferred()) return run(src.fragments.size(), fn);
  OBS_SPAN("datacube", "materialize");
  OBS_SCOPED_LATENCY("datacube.op_ns.materialize");
  run(src.fragments.size(), fn);
}

// A cube with src's rows and fragment layout and out_len elements per row;
// the caller fills the values, or sets a chain.
CubeData derived(const CubeData& src, std::size_t out_len, std::string description) {
  CubeData out;
  out.measure = src.measure;
  out.description = std::move(description);
  out.explicit_dims = src.explicit_dims;
  out.implicit_dim = DimInfo{src.implicit_dim.name, out_len, {}};
  if (out_len == src.array_length()) out.implicit_dim.coords = src.implicit_dim.coords;
  out.fragments.reserve(src.fragments.size());
  for (const Fragment& frag : src.fragments) {
    out.fragments.push_back({frag.row_start, frag.row_count, frag.server, {}});
  }
  return out;
}

// Rows a fragment task reads and computes at a time (a deferred cube's are
// evaluated into one block buffer first).
constexpr std::size_t kBlockRows = 8;

// Reduces one fragment's rows kBlockRows at a time, the remainder one by
// one.
template <class Acc>
void reduce_fragment(RowReader& reader, const Fragment& frag, std::size_t alen,
                     std::size_t group_size, std::size_t out_len, float* block, float* dst) {
  for (std::size_t r = 0; r < frag.row_count; r += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, frag.row_count - r);
    const float* rows = reader.rows(frag.row_start + r, count, block);
    float* out = dst + r * out_len;
    if (count == kBlockRows) {
      reduce_block<Acc, kBlockRows>(rows, alen, group_size, out_len, out);
      continue;
    }
    for (std::size_t i = 0; i < count; ++i) {
      reduce_block<Acc, 1>(rows + i * alen, alen, group_size, out_len, out + i * out_len);
    }
  }
}

}  // namespace

Result<CubeData> reduce(const CubeData& src, ReduceOp op, std::size_t group_size,
                        const std::string& description, const ParallelRunner& run) {
  const std::size_t alen = src.array_length();
  if (alen == 0) return Status::InvalidArgument("reduce produces empty output");
  if (group_size == 0) group_size = alen;
  const std::size_t out_len = (alen + group_size - 1) / group_size;

  CubeData out = derived(src, out_len, description.empty() ? "reduce" : description);
  read_fragments(src, run, [&](std::size_t f) {
    const Fragment& in_frag = src.fragments[f];
    Fragment& out_frag = out.fragments[f];
    out_frag.values.resize(in_frag.row_count * out_len);
    RowReader reader(src);
    std::vector<float> block(src.deferred() ? kBlockRows * alen : 0);
    auto reduce_with = [&](auto acc) {
      reduce_fragment<decltype(acc)>(reader, in_frag, alen, group_size, out_len, block.data(),
                                     out_frag.values.data());
    };
    switch (op) {
      case ReduceOp::kMax: return reduce_with(MaxAcc{});
      case ReduceOp::kMin: return reduce_with(MinAcc{});
      case ReduceOp::kSum: return reduce_with(SumAcc{});
      case ReduceOp::kAvg: return reduce_with(AvgAcc{});
      case ReduceOp::kStd: return reduce_with(StdAcc{});
      case ReduceOp::kCount: return reduce_with(CountAcc{});
    }
  });
  return out;
}

Result<CubeData> apply(const std::shared_ptr<const CubeData>& src, const std::string& expression,
                       const std::string& description, const ParallelRunner& run) {
  auto expr = Expression::parse(expression);
  if (!expr.ok()) return expr.status();

  const std::size_t alen = src->array_length();
  const std::size_t out_len = expr->output_length(alen);
  if (out_len == 0) return Status::InvalidArgument("expression produces empty output");

  CubeData out =
      derived(*src, out_len, description.empty() ? "apply(" + expression + ")" : description);
  if (expr->elementwise()) {
    Chain chain;
    if (src->deferred()) {
      chain = *src->chain;
    } else {
      chain.a = src;
    }
    chain.steps.push_back(*std::move(expr));
    out.chain = std::make_shared<const Chain>(std::move(chain));
    return out;
  }

  OBS_SCOPED_LATENCY("datacube.op_ns.scan");
  read_fragments(*src, run, [&](std::size_t f) {
    const Fragment& in_frag = src->fragments[f];
    Fragment& out_frag = out.fragments[f];
    out_frag.values.resize(in_frag.row_count * out_len);
    RowReader reader(*src);
    std::vector<float> block(src->deferred() ? kBlockRows * alen : 0);
    std::vector<float> scratch(kBlockRows * expr->scratch_size(alen));
    for (std::size_t r = 0; r < in_frag.row_count; r += kBlockRows) {
      const std::size_t count = std::min(kBlockRows, in_frag.row_count - r);
      expr->eval_rows(reader.rows(in_frag.row_start + r, count, block.data()), count, alen,
                      out_frag.values.data() + r * out_len, scratch.data());
    }
  });
  return out;
}

Result<CubeData> intercube(const std::shared_ptr<const CubeData>& a,
                           const std::shared_ptr<const CubeData>& b, InterOp op,
                           const std::string& description) {
  if (a->row_count() != b->row_count() || a->array_length() != b->array_length()) {
    return Status::InvalidArgument("intercube: shape mismatch (" + std::to_string(a->row_count()) +
                                   "x" + std::to_string(a->array_length()) + " vs " +
                                   std::to_string(b->row_count()) + "x" +
                                   std::to_string(b->array_length()) + ")");
  }
  CubeData out = derived(*a, a->array_length(), description.empty() ? "intercube" : description);
  out.chain = std::make_shared<const Chain>(Chain{a, b, op, {}});
  return out;
}

std::shared_ptr<const CubeData> materialize(const std::shared_ptr<const CubeData>& src,
                                            const ParallelRunner& run) {
  if (!src->deferred()) return src;
  const std::size_t alen = src->array_length();
  CubeData out = derived(*src, alen, src->description);
  read_fragments(*src, run, [&](std::size_t f) {
    Fragment& frag = out.fragments[f];
    frag.values.resize(frag.row_count * alen);
    if (frag.row_count == 0) return;
    RowReader reader(*src);
    reader.rows(frag.row_start, frag.row_count, frag.values.data());
  });
  return std::make_shared<const CubeData>(std::move(out));
}

std::size_t source_elements(const CubeData& cube) {
  if (!cube.deferred()) return cube.element_count();
  const Chain& chain = *cube.chain;
  return source_elements(*chain.a) + (chain.b ? source_elements(*chain.b) : 0);
}

}  // namespace engine
}  // namespace climate::datacube
