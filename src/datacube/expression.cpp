#include "datacube/expression.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace climate::datacube {
namespace detail {

// ------------------------------------------------------------------ program

enum class Op : std::uint8_t {
  // Elementwise binary, with scalar broadcasting.
  kAdd, kSub, kMul, kDiv, kLt, kGt, kLe, kGe, kEq, kNe, kMin, kMax, kPow,
  // Elementwise unary.
  kNeg, kAbs, kSqrt, kExp, kLog,
  // Elementwise conditional: the ops up to here are elementwise (see
  // Expression::elementwise). Then functions of a whole row.
  kPredicate, kWaveDuration, kRunningMax, kRunningSum, kShift,
};

/// An instruction operand: a constant, the measure row, or the scratch row
/// another instruction wrote.
struct Arg {
  enum class Kind : std::uint8_t { kConst, kMeasure, kRow };
  Kind kind = Kind::kConst;
  float value = 0.0f;     ///< kConst.
  std::uint32_t row = 0;  ///< kRow: scratch row (while parsing: the writing instruction).
  bool is_const() const { return kind == Kind::kConst; }
};

Arg constant(float value) { return {Arg::Kind::kConst, value, 0}; }

struct Instr;

/// The loop of one instruction over count consecutive rows of length n,
/// specialised on the operator and on which operands are rows (a constant
/// operand's pointer is unused).
using Kernel = void (*)(const Instr& in, const float* a, const float* b, const float* c,
                        float* out, std::size_t count, std::size_t n);

struct Instr {
  explicit Instr(Op op = Op::kAdd, Arg a = {}, Arg b = {}) : op(op), a(a), b(b) {}
  Op op;
  Arg a, b, c;             ///< Binary: a op b. Predicate: input, then, else.
  Op cmp = Op::kGt;        ///< Predicate condition ...
  float threshold = 0.0f;  ///< ... against this constant.
  int k = 0;               ///< wave_duration min_len (at least 1 once linked), shift offset.
  std::uint32_t dst = 0;   ///< Scratch row written; the last instruction writes the output.
  Kernel kernel = nullptr;
};

struct Program {
  std::vector<Instr> code;  ///< Postfix order.
  Arg result;               ///< kRow: written by code.back().
  std::uint32_t rows = 0;   ///< Scratch rows the code needs.
};

// ------------------------------------------------------------------ kernels

template <Op op>
bool compare(float a, float b) {
  if constexpr (op == Op::kLt) return a < b;
  else if constexpr (op == Op::kGt) return a > b;
  else if constexpr (op == Op::kLe) return a <= b;
  else if constexpr (op == Op::kGe) return a >= b;
  else if constexpr (op == Op::kEq) return a == b;
  else return a != b;
}

// One element of an elementwise operator (a unary one ignores b).
template <Op op>
float element(float a, float b) {
  if constexpr (op == Op::kAdd) return a + b;
  else if constexpr (op == Op::kSub) return a - b;
  else if constexpr (op == Op::kMul) return a * b;
  else if constexpr (op == Op::kDiv) {
    // Division by zero yields 0. The quotient is computed either way so the
    // select vectorises.
    const float q = a / b;
    return b == 0.0f ? 0.0f : q;
  }
  else if constexpr (op == Op::kMin) return std::min(a, b);
  else if constexpr (op == Op::kMax) return std::max(a, b);
  else if constexpr (op == Op::kPow) return std::pow(a, b);
  else if constexpr (op == Op::kNeg) return -a;
  else if constexpr (op == Op::kAbs) return std::fabs(a);
  else if constexpr (op == Op::kSqrt) return std::sqrt(std::max(0.0f, a));
  else if constexpr (op == Op::kExp) return std::exp(a);
  else if constexpr (op == Op::kLog) return a <= 0.0f ? 0.0f : std::log(a);
  else return compare<op>(a, b) ? 1.0f : 0.0f;
}

// The output never aliases an operand (see link()); operands may alias
// each other, which restrict allows because they are only read. Elementwise
// loops run once over the block's count * n contiguous elements.
template <Op op, bool kConstA, bool kConstB>
void elementwise_loop(const Instr& in, const float* __restrict a, const float* __restrict b,
                      const float*, float* __restrict out, std::size_t count, std::size_t n) {
  const float ca = in.a.value;
  const float cb = in.b.value;
  for (std::size_t i = 0; i < count * n; ++i) {
    out[i] = element<op>(kConstA ? ca : a[i], kConstB ? cb : b[i]);
  }
}

template <Op cmp, bool kConstThen, bool kConstElse>
void predicate_loop(const Instr& in, const float* __restrict a, const float* __restrict t,
                    const float* __restrict e, float* __restrict out, std::size_t count,
                    std::size_t n) {
  const float threshold = in.threshold;
  const float ct = in.b.value;
  const float ce = in.c.value;
  for (std::size_t i = 0; i < count * n; ++i) {
    // Both branches are loaded so the select vectorises.
    const float then_value = kConstThen ? ct : t[i];
    const float else_value = kConstElse ? ce : e[i];
    out[i] = compare<cmp>(a[i], threshold) ? then_value : else_value;
  }
}

// Run lengths of ones (> 0.5) of at least min_len, at each run's last
// position, 0 elsewhere. Branchless: every position is written once, and the
// run is updated with integer masks. Safe in place.
void wave_duration_row(const float* in, float* out, std::size_t n, int min_len) {
  if (n == 0) return;
  int run = in[0] > 0.5f ? 1 : 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const int next = -static_cast<int>(in[i + 1] > 0.5f);  // all ones if the run goes on
    const int qualifies = -static_cast<int>(run >= min_len);
    out[i] = static_cast<float>(run & qualifies & ~next);
    run = (run + 1) & next;
  }
  out[n - 1] = static_cast<float>(run & -static_cast<int>(run >= min_len));
}

#ifdef __SSE2__
// wave_duration_row over 4 rows at once, one row per SSE2 lane, walking the
// columns 4 at a time through transposed 4x4 tiles. Each lane runs the row
// kernel's integer logic: the run of column i is (run + 1) & ones_i, and it
// is written where the run qualifies and column i + 1 is not a one. That
// needs the next column, so a tile is stored once the next tile's first
// column is known. A short last tile is padded with zeros, which end any run
// as the row's end does. Requires min_len >= 1, so the compare against
// min_len - 1 cannot overflow.
void wave_duration_rows4(const float* in, float* out, std::size_t n, int min_len) {
  if (n == 0) return;
  constexpr std::size_t kLanes = 4;
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128i one = _mm_set1_epi32(1);
  const __m128i below = _mm_set1_epi32(min_len - 1);
  __m128i run = _mm_setzero_si128();
  __m128i pending[kLanes] = {};  // the last tile's outputs, lane k: row k
  // Stores the pending outputs as 4 rows of 4 columns, stride apart.
  auto store = [&](float* dst, std::size_t stride) {
    __m128 row[kLanes];
    for (std::size_t t = 0; t < kLanes; ++t) row[t] = _mm_cvtepi32_ps(pending[t]);
    _MM_TRANSPOSE4_PS(row[0], row[1], row[2], row[3]);
    for (std::size_t k = 0; k < kLanes; ++k) _mm_storeu_ps(dst + k * stride, row[k]);
  };
  // Scans the tile of 4 columns whose rows start at `tile` (stride apart),
  // first storing the previous tile's outputs to `prev_out`, if any.
  auto scan = [&](const float* tile, std::size_t stride, float* prev_out) {
    __m128 col[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) col[k] = _mm_loadu_ps(tile + k * stride);
    _MM_TRANSPOSE4_PS(col[0], col[1], col[2], col[3]);
    __m128i ones[kLanes];
    for (std::size_t t = 0; t < kLanes; ++t) ones[t] = _mm_castps_si128(_mm_cmpgt_ps(col[t], half));
    if (prev_out) {
      pending[kLanes - 1] = _mm_andnot_si128(ones[0], pending[kLanes - 1]);
      store(prev_out, n);
    }
    for (std::size_t t = 0; t < kLanes; ++t) {
      run = _mm_and_si128(_mm_add_epi32(run, one), ones[t]);
      pending[t] = _mm_and_si128(run, _mm_cmpgt_epi32(run, below));
      if (t > 0) pending[t - 1] = _mm_andnot_si128(ones[t], pending[t - 1]);
    }
  };
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) scan(in + j, n, j > 0 ? out + j - kLanes : nullptr);
  if (j == n) {
    store(out + j - kLanes, n);
    return;
  }
  // The short last tile, padded with zeros.
  float tile[kLanes][kLanes] = {};
  for (std::size_t k = 0; k < kLanes; ++k) std::copy(in + k * n + j, in + k * n + n, tile[k]);
  scan(tile[0], kLanes, j > 0 ? out + j - kLanes : nullptr);
  store(tile[0], kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) std::copy(tile[k], tile[k] + n - j, out + k * n + j);
}
#endif

// Rows 4 at a time through the lanes where SSE2 exists (the x86-64
// baseline), the rest through the row kernel.
void wave_duration_loop(const Instr& in, const float* a, const float*, const float*, float* out,
                        std::size_t count, std::size_t n) {
  std::size_t r = 0;
#ifdef __SSE2__
  for (; r + 4 <= count; r += 4) wave_duration_rows4(a + r * n, out + r * n, n, in.k);
#endif
  for (; r < count; ++r) wave_duration_row(a + r * n, out + r * n, n, in.k);
}

template <Op op>
void scan_loop(const Instr&, const float* __restrict a, const float*, const float*,
               float* __restrict out, std::size_t count, std::size_t n) {
  if (n == 0) return;
  for (std::size_t r = 0; r < count; ++r, a += n, out += n) {
    float acc = a[0];
    out[0] = acc;
    for (std::size_t i = 1; i < n; ++i) {
      acc = op == Op::kRunningSum ? acc + a[i] : std::max(acc, a[i]);
      out[i] = acc;
    }
  }
}

void shift_loop(const Instr& in, const float* a, const float*, const float*, float* out,
                std::size_t count, std::size_t n) {
  std::fill(out, out + count * n, 0.0f);
  const long k = in.k;
  const long kept = static_cast<long>(n) - std::abs(k);
  if (kept <= 0) return;
  for (std::size_t r = 0; r < count; ++r) {
    const float* from = a + r * n + std::max(-k, 0L);
    std::copy(from, from + kept, out + r * n + std::max(k, 0L));
  }
}

// Calls pick.operator()<op>() for the runtime op, one of [First, Last].
template <Op First, Op Last, class Pick>
Kernel dispatch(Op op, const Pick& pick) {
  if constexpr (First != Last) {
    if (op != First) return dispatch<static_cast<Op>(static_cast<int>(First) + 1), Last>(op, pick);
  }
  return pick.template operator()<First>();
}

Kernel select_kernel(const Instr& in) {
  const bool ca = in.a.is_const(), cb = in.b.is_const(), cc = in.c.is_const();
  switch (in.op) {
    case Op::kPredicate:
      return dispatch<Op::kLt, Op::kNe>(in.cmp, [&]<Op cmp>() -> Kernel {
        if (cb) return cc ? predicate_loop<cmp, true, true> : predicate_loop<cmp, true, false>;
        return cc ? predicate_loop<cmp, false, true> : predicate_loop<cmp, false, false>;
      });
    case Op::kWaveDuration: return wave_duration_loop;
    case Op::kRunningMax: return scan_loop<Op::kRunningMax>;
    case Op::kRunningSum: return scan_loop<Op::kRunningSum>;
    case Op::kShift: return shift_loop;
    default:  // elementwise: at most one of a and b is constant
      return dispatch<Op::kAdd, Op::kLog>(in.op, [&]<Op op>() -> Kernel {
        if (ca) return elementwise_loop<op, true, false>;
        return cb ? elementwise_loop<op, false, true> : elementwise_loop<op, false, false>;
      });
  }
}

// Drops the instructions the result does not read (predicate ignores surplus
// arguments), gives every other value a scratch row and selects each
// kernel. Each value has one reader, so its row is free once that reader has
// run; the reader's own output is placed first, so it never aliases an input.
// A wave_duration min_len below 1 becomes 1: only a run of at least one
// writes a non-zero length, so the outputs are the same.
Program link(const std::vector<Instr>& code, Arg result) {
  Program program;
  program.result = result;
  if (result.kind != Arg::Kind::kRow) return program;
  auto operands = [](Instr& in) { return std::array<Arg*, 3>{&in.a, &in.b, &in.c}; };

  std::vector<Instr> live_code(code.begin(), code.begin() + result.row + 1);
  std::vector<bool> live(live_code.size(), false);
  live[result.row] = true;
  for (std::size_t i = live.size(); i-- > 0;) {
    for (Arg* arg : operands(live_code[i])) {
      if (live[i] && arg->kind == Arg::Kind::kRow) live[arg->row] = true;
    }
  }

  std::vector<std::uint32_t> row_of(live.size(), 0);
  std::vector<std::uint32_t> free_rows;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!live[i]) continue;
    Instr& in = live_code[i];
    if (i != result.row) {
      if (free_rows.empty()) free_rows.push_back(program.rows++);
      in.dst = row_of[i] = free_rows.back();
      free_rows.pop_back();
    }
    for (Arg* arg : operands(in)) {
      if (arg->kind != Arg::Kind::kRow) continue;
      arg->row = row_of[arg->row];
      free_rows.push_back(arg->row);
    }
    if (in.op == Op::kWaveDuration) in.k = std::max(in.k, 1);
    in.kernel = select_kernel(in);
    program.code.push_back(in);
  }
  return program;
}

// ---------------------------------------------------------------- tokenizer

// Parses the numeral at the start of text as strtof does, without
// exceptions; returns the characters consumed, 0 for no numeral or one out of
// float range.
std::size_t parse_float(const char* text, float& value) {
  char* end = nullptr;
  errno = 0;
  value = std::strtof(text, &end);
  if (end == text || errno == ERANGE) return 0;
  return static_cast<std::size_t>(end - text);
}

enum class TokKind { kNumber, kIdent, kString, kOp, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  float number = 0.0f;
};

Result<std::vector<Token>> tokenize(const std::string& text) {
  std::vector<Token> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
    } else if (std::isdigit(static_cast<unsigned char>(c)) || (c == '.' && pos + 1 < text.size())) {
      float v = 0.0f;
      const std::size_t len = parse_float(text.c_str() + pos, v);
      if (len == 0) {
        return Status::InvalidArgument("malformed number at '" + text.substr(pos) + "'");
      }
      tokens.push_back({TokKind::kNumber, text.substr(pos, len), v});
      pos += len;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = pos;
      while (std::isalnum(static_cast<unsigned char>(text[end])) || text[end] == '_') ++end;
      tokens.push_back({TokKind::kIdent, text.substr(pos, end - pos), 0.0f});
      pos = end;
    } else if (c == '\'' || c == '"') {
      const std::size_t end = text.find(c, pos + 1);
      if (end == std::string::npos) return Status::InvalidArgument("unterminated string literal");
      tokens.push_back({TokKind::kString, text.substr(pos + 1, end - pos - 1), 0.0f});
      pos = end + 1;
    } else if (std::string("<>=!").find(c) != std::string::npos && pos + 1 < text.size() &&
               text[pos + 1] == '=') {
      tokens.push_back({TokKind::kOp, text.substr(pos, 2), 0.0f});  // <= >= == !=
      pos += 2;
    } else if (std::string("+-*/(),<>").find(c) != std::string::npos) {
      tokens.push_back({TokKind::kOp, std::string(1, c), 0.0f});
      ++pos;
    } else {
      return Status::InvalidArgument(std::string("unexpected character '") + c + "'");
    }
  }
  tokens.push_back({TokKind::kEnd, "", 0.0f});
  return tokens;
}

// ------------------------------------------------------------------ parser

// Recursive descent that emits postfix code as it goes: each parse step
// returns the Arg holding its value.
class ExprParser {
 public:
  explicit ExprParser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> run() {
    Result<Arg> result = parse_binary();
    if (!result.ok()) return result.status();
    if (peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing tokens in expression");
    }
    return link(code_, *result);
  }

 private:
  // A function argument: an expression or a quoted string.
  struct FnArg {
    bool is_string = false;
    std::string text;
    Arg value;
  };

  const Token& peek() const { return tokens_[pos_]; }
  Token take() { return tokens_[pos_++]; }

  bool accept_op(const std::string& op) {
    if (peek().kind != TokKind::kOp || peek().text != op) return false;
    ++pos_;
    return true;
  }

  // Appends an instruction, or folds it when its first `arity` operands are
  // all constant by running its own kernel on one element.
  Arg emit(Instr in, int arity) {
    const Arg* args[] = {&in.a, &in.b, &in.c};
    if (std::all_of(args, args + arity, [](const Arg* a) { return a->is_const(); })) {
      Instr rows = in;
      rows.a.kind = rows.b.kind = rows.c.kind = Arg::Kind::kRow;
      float out = 0.0f;
      select_kernel(rows)(rows, &in.a.value, &in.b.value, &in.c.value, &out, 1, 1);
      return constant(out);
    }
    code_.push_back(in);
    return {Arg::Kind::kRow, 0.0f, static_cast<std::uint32_t>(code_.size() - 1)};
  }

  // Left-associative binary operators, loosest level first. Comparisons also
  // spell predicate conditions.
  inline static const std::map<std::string, Op> kLevels[] = {
      {{"<", Op::kLt}, {">", Op::kGt}, {"<=", Op::kLe}, {">=", Op::kGe}, {"==", Op::kEq},
       {"!=", Op::kNe}},
      {{"+", Op::kAdd}, {"-", Op::kSub}},
      {{"*", Op::kMul}, {"/", Op::kDiv}},
  };

  Result<Arg> parse_binary(std::size_t level = 0) {
    if (level == std::size(kLevels)) return parse_unary();
    Result<Arg> value = parse_binary(level + 1);
    while (value.ok() && peek().kind == TokKind::kOp) {
      const auto op = kLevels[level].find(peek().text);
      if (op == kLevels[level].end()) break;
      ++pos_;
      Result<Arg> right = parse_binary(level + 1);
      if (!right.ok()) return right;
      value = emit(Instr(op->second, *value, *right), 2);
    }
    return value;
  }

  Result<Arg> parse_unary() {
    if (accept_op("-")) {
      Result<Arg> child = parse_unary();
      if (!child.ok()) return child;
      return emit(Instr(Op::kNeg, *child), 1);
    }
    if (accept_op("+")) return parse_unary();
    return parse_primary();
  }

  Result<std::vector<FnArg>> parse_args() {
    if (!accept_op("(")) return Status::InvalidArgument("expected '(' after function name");
    std::vector<FnArg> args;
    if (accept_op(")")) return args;
    while (true) {
      if (peek().kind == TokKind::kString) {
        args.push_back({true, take().text, {}});
      } else {
        Result<Arg> arg = parse_binary();
        if (!arg.ok()) return arg.status();
        args.push_back({false, "", *arg});
      }
      if (accept_op(",")) continue;
      if (accept_op(")")) return args;
      return Status::InvalidArgument("expected ',' or ')' in argument list");
    }
  }

  // predicate(a, 'cond', then, else); Ophidia's longer 7-argument form
  // oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0') is also
  // accepted: string type/variable arguments are skipped.
  Result<Arg> parse_predicate(const std::vector<FnArg>& args) {
    std::vector<Arg> exprs;
    const std::string* cond = nullptr;
    std::vector<const std::string*> value_strings;
    for (const FnArg& arg : args) {
      const std::string& s = arg.text;
      if (!arg.is_string) {
        exprs.push_back(arg.value);
      } else if (!cond && !s.empty() && std::string("><=!").find(s[0]) != std::string::npos) {
        cond = &s;  // the first string starting with an operator
      } else if (!s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '-')) {
        value_strings.push_back(&s);
      }
      // Strings like 'OPH_INT' or 'x' are type/variable markers: ignored.
    }
    if (!cond) return Status::InvalidArgument("predicate: missing condition string");

    Instr in(Op::kPredicate);
    const bool two_char = cond->size() > 1 && (*cond)[1] == '=';
    const std::size_t op_len = two_char ? 2 : 1;
    const auto cmp = kLevels[0].find(cond->substr(0, op_len));
    if (cmp == kLevels[0].end() || parse_float(cond->c_str() + op_len, in.threshold) == 0) {
      return Status::InvalidArgument("predicate: bad condition '" + *cond + "'");
    }
    in.cmp = cmp->second;

    // The first expression is the input, the next ones then and else; a
    // missing then/else comes from the numeric strings, else 0.
    std::size_t cursor = 0;
    in.a = cursor < exprs.size() ? exprs[cursor++] : Arg{Arg::Kind::kMeasure, 0.0f, 0};
    for (std::size_t branch = 0; branch < 2; ++branch) {
      Arg& value = branch == 0 ? in.b : in.c;
      if (cursor < exprs.size()) {
        value = exprs[cursor++];
      } else if (branch < value_strings.size() &&
                 parse_float(value_strings[branch]->c_str(), value.value) == 0) {
        return Status::InvalidArgument("predicate: bad value '" + *value_strings[branch] + "'");
      }
    }
    if (in.a.is_const()) {
      // A constant condition selects one branch whole. The result is still a
      // row when either branch is one: a constant pick is filled across the
      // other branch's row (both branches set to it).
      const bool hit = emit(Instr(in.cmp, in.a, constant(in.threshold)), 2).value != 0;
      const Arg pick = hit ? in.b : in.c;
      const Arg other = hit ? in.c : in.b;
      if (!pick.is_const() || other.is_const()) return pick;
      in.a = other;
      in.b = in.c = pick;
    }
    return emit(in, 1);
  }

  Result<Arg> parse_primary() {
    const Token token = take();
    if (token.kind == TokKind::kNumber) return constant(token.number);
    if (token.kind == TokKind::kOp && token.text == "(") {
      Result<Arg> inner = parse_binary();
      if (!inner.ok()) return inner;
      if (!accept_op(")")) return Status::InvalidArgument("expected ')'");
      return inner;
    }
    if (token.kind != TokKind::kIdent) {
      return Status::InvalidArgument("unexpected token '" + token.text + "'");
    }
    std::string name = token.text;
    // Normalize the Ophidia primitive prefix: oph_predicate == predicate.
    if (name.rfind("oph_", 0) == 0) name = name.substr(4);

    if (name == "measure" || name == "x") return Arg{Arg::Kind::kMeasure, 0.0f, 0};

    // Function call.
    Result<std::vector<FnArg>> args = parse_args();
    if (!args.ok()) return args.status();
    if (name == "predicate") return parse_predicate(*args);

    static const std::map<std::string, Op> kFunctions = {
        {"abs", Op::kAbs},   {"sqrt", Op::kSqrt}, {"exp", Op::kExp},     {"log", Op::kLog},
        {"min", Op::kMin},   {"max", Op::kMax},   {"pow", Op::kPow},     {"shift", Op::kShift},
        {"running_max", Op::kRunningMax},         {"running_sum", Op::kRunningSum},
        {"wave_duration", Op::kWaveDuration}};
    const auto fn = kFunctions.find(name);
    if (fn == kFunctions.end()) return Status::InvalidArgument("unknown function '" + name + "'");
    const Op op = fn->second;
    const std::size_t arity = op <= Op::kPow || op == Op::kWaveDuration || op == Op::kShift ? 2 : 1;
    if (args->size() != arity) {
      return Status::InvalidArgument(name + " expects " + std::to_string(arity) + " arguments");
    }
    for (const FnArg& arg : *args) {
      if (arg.is_string) return Status::InvalidArgument(name + ": arguments must be expressions");
    }

    Instr in(op, (*args)[0].value);
    if (op == Op::kMin || op == Op::kMax || op == Op::kPow) {
      in.b = (*args)[1].value;
      return emit(in, 2);
    }
    if (op == Op::kWaveDuration || op == Op::kShift) {
      // An int constant, truncated toward zero.
      const Arg& k = (*args)[1].value;
      if (!k.is_const() || !(k.value >= -2147483648.0f && k.value < 2147483648.0f)) {
        return Status::InvalidArgument(name + ": second argument must be an int constant");
      }
      in.k = static_cast<int>(k.value);
    }
    // A constant is its own scan and shift (wave_duration folds it as a
    // length-1 row), and so is any row shifted by 0.
    const bool scan_or_shift = op == Op::kRunningMax || op == Op::kRunningSum || op == Op::kShift;
    if ((scan_or_shift && in.a.is_const()) || (op == Op::kShift && in.k == 0)) return in.a;
    return emit(in, 1);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<Instr> code_;
};

}  // namespace detail

Result<Expression> Expression::parse(const std::string& text) {
  auto tokens = detail::tokenize(text);
  if (!tokens.ok()) return tokens.status();
  auto program = detail::ExprParser(std::move(*tokens)).run();
  if (!program.ok()) return program.status();
  Expression expr;
  expr.program_ = std::make_shared<const detail::Program>(std::move(*program));
  return expr;
}

std::size_t Expression::output_length(std::size_t n) const {
  if (!program_) return 0;
  return program_->result.is_const() ? 1 : n;
}

bool Expression::elementwise() const {
  if (!program_ || program_->result.is_const()) return false;
  return std::all_of(program_->code.begin(), program_->code.end(),
                     [](const detail::Instr& in) { return in.op <= detail::Op::kPredicate; });
}

std::size_t Expression::scratch_size(std::size_t n) const {
  return program_ ? program_->rows * n : 0;
}

void Expression::eval_rows(const float* measure, std::size_t count, std::size_t n, float* out,
                           float* scratch) const {
  using detail::Arg;
  const detail::Program& program = *program_;
  switch (program.result.kind) {
    case Arg::Kind::kConst: std::fill(out, out + count, program.result.value); return;
    case Arg::Kind::kMeasure: std::copy(measure, measure + count * n, out); return;
    case Arg::Kind::kRow: break;
  }
  // Scratch row j holds the block's rows of value j, at stride n.
  const std::size_t block = count * n;
  auto rows = [&](const Arg& arg) -> const float* {
    if (arg.kind == Arg::Kind::kMeasure) return measure;
    return arg.kind == Arg::Kind::kRow ? scratch + arg.row * block : nullptr;
  };
  for (const detail::Instr& in : program.code) {
    float* dst = &in == &program.code.back() ? out : scratch + in.dst * block;
    in.kernel(in, rows(in.a), rows(in.b), rows(in.c), dst, count, n);
  }
}

std::vector<float> Expression::eval(const std::vector<float>& measure) const {
  if (!program_) return {};
  std::vector<float> out(output_length(measure.size()));
  std::vector<float> scratch(scratch_size(measure.size()));
  eval_rows(measure.data(), 1, measure.size(), out.data(), scratch.data());
  return out;
}

std::vector<float> wave_duration(const std::vector<float>& binary, int min_len) {
  std::vector<float> out(binary.size());
  detail::wave_duration_row(binary.data(), out.data(), binary.size(), min_len);
  return out;
}

}  // namespace climate::datacube
