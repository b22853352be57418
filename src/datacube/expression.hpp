// Expression engine for the datacube `apply` operator — the equivalent of
// Ophidia's array primitives (oph_predicate & friends used in Listing 1 of
// the paper).
//
// Expressions operate per row on the implicit array dimension. The variable
// `measure` (alias `x`) is the row's array; arithmetic and comparisons are
// elementwise with scalar broadcasting; functions:
//
//   abs(a), sqrt(a), exp(a), log(a), min(a,b), max(a,b), pow(a,b)
//   predicate(a, 'cond', then, else)   -- elementwise conditional, cond one
//                                         of  >v >=v <v <=v ==v !=v  (e.g.
//                                         predicate(x,'>0',1,0)); the Ophidia
//                                         spelling oph_predicate is accepted
//   wave_duration(a, min_len)          -- a is a 0/1 array; returns an array
//                                         of the same length with the length
//                                         of each qualifying run (>= min_len
//                                         consecutive ones) stored at the
//                                         run's end position, 0 elsewhere.
//                                         This is the "duration cube" input
//                                         of the heat/cold-wave indices.
//                                         min_len is a constant; of a
//                                         constant a, the result is the
//                                         constant for a length-1 array.
//   running_max(a), running_sum(a)     -- prefix scans
//   shift(a, k)                        -- shift with zero fill, k constant
//
// Scans and shift leave a constant argument unchanged.
//
// Parsing compiles the text to a flat postfix program. Subexpressions that
// do not read the measure are folded to constants, so every instruction has
// at least one row operand and its loop is specialised on the operator and
// on which operands are rows. Evaluation takes a block of rows per call:
// elementwise instructions run once over the whole block, and
// wave_duration runs 4 rows at a time, one per SIMD lane. A parsed
// Expression is immutable and thread-safe to evaluate.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace climate::datacube {

using common::Result;
using common::Status;

namespace detail {
struct Program;
}

/// A compiled array expression.
class Expression {
 public:
  /// Parses the expression text; returns INVALID_ARGUMENT on syntax errors.
  static Result<Expression> parse(const std::string& text);

  Expression() = default;

  /// Output length for rows of length n: n, or 1 when the expression is
  /// constant.
  std::size_t output_length(std::size_t n) const;

  /// Floats of scratch that eval_rows needs per row of length n.
  std::size_t scratch_size(std::size_t n) const;

  /// Evaluates count consecutive rows of length n (measure at stride n) into
  /// out at stride output_length(n); scratch holds count * scratch_size(n)
  /// floats owned by the caller. Each row's output is the same as when it is
  /// evaluated alone. Requires valid().
  void eval_rows(const float* measure, std::size_t count, std::size_t n, float* out,
                 float* scratch) const;

  /// Evaluates over one row array (allocating its output and scratch).
  std::vector<float> eval(const std::vector<float>& measure) const;

  /// True when each output element depends only on the input element at the
  /// same position: the program holds only arithmetic, comparisons and
  /// predicates (no scan or shift), and its result is a row, so
  /// output_length(n) == n.
  bool elementwise() const;

  bool valid() const { return program_ != nullptr; }

 private:
  std::shared_ptr<const detail::Program> program_;
};

/// Computes wave_duration directly (exposed for the reference index
/// implementation and for property tests): lengths of runs of consecutive
/// ones with length >= min_len, written at each run's final position.
std::vector<float> wave_duration(const std::vector<float>& binary, int min_len);

}  // namespace climate::datacube
