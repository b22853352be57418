// Tests for the datacube expression engine (the oph_predicate-style array
// primitives), including property-style parameterized checks of the
// wave_duration primitive.
#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "datacube/expression.hpp"

namespace climate::datacube {
namespace {

std::vector<float> eval(const std::string& text, const std::vector<float>& measure) {
  auto expr = Expression::parse(text);
  EXPECT_TRUE(expr.ok()) << text << ": " << expr.status().to_string();
  return expr->eval(measure);
}

TEST(Expression, Arithmetic) {
  EXPECT_EQ(eval("measure * 2 + 1", {1, 2, 3}), (std::vector<float>{3, 5, 7}));
  EXPECT_EQ(eval("x - 1", {1, 2}), (std::vector<float>{0, 1}));
  EXPECT_EQ(eval("-x", {1, -2}), (std::vector<float>{-1, 2}));
  EXPECT_EQ(eval("(x + 1) * (x - 1)", {2, 3}), (std::vector<float>{3, 8}));
  EXPECT_EQ(eval("10 / x", {2, 5}), (std::vector<float>{5, 2}));
}

TEST(Expression, DivisionByZeroYieldsZero) {
  EXPECT_EQ(eval("1 / x", {0}), (std::vector<float>{0}));
}

TEST(Expression, Comparisons) {
  EXPECT_EQ(eval("x > 2", {1, 2, 3}), (std::vector<float>{0, 0, 1}));
  EXPECT_EQ(eval("x >= 2", {1, 2, 3}), (std::vector<float>{0, 1, 1}));
  EXPECT_EQ(eval("x < 2", {1, 2, 3}), (std::vector<float>{1, 0, 0}));
  EXPECT_EQ(eval("x <= 2", {1, 2, 3}), (std::vector<float>{1, 1, 0}));
  EXPECT_EQ(eval("x == 2", {1, 2, 3}), (std::vector<float>{0, 1, 0}));
  EXPECT_EQ(eval("x != 2", {1, 2, 3}), (std::vector<float>{1, 0, 1}));
}

TEST(Expression, Functions) {
  EXPECT_EQ(eval("abs(x)", {-3, 4}), (std::vector<float>{3, 4}));
  EXPECT_EQ(eval("max(x, 2)", {1, 3}), (std::vector<float>{2, 3}));
  EXPECT_EQ(eval("min(x, 2)", {1, 3}), (std::vector<float>{1, 2}));
  EXPECT_EQ(eval("pow(x, 2)", {2, 3}), (std::vector<float>{4, 9}));
  EXPECT_EQ(eval("sqrt(x)", {4, 9}), (std::vector<float>{2, 3}));
  EXPECT_EQ(eval("sqrt(x)", {-1}), (std::vector<float>{0}));  // clamped
}

TEST(Expression, PredicateShortForm) {
  EXPECT_EQ(eval("predicate(x, '>0', 1, 0)", {-1, 0, 2}), (std::vector<float>{0, 0, 1}));
  EXPECT_EQ(eval("predicate(x, '<=1', 5, 7)", {0, 1, 2}), (std::vector<float>{5, 5, 7}));
}

TEST(Expression, PredicateOphidiaLongForm) {
  // The exact spelling from the paper's Listing 1.
  const std::string listing1 = "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')";
  EXPECT_EQ(eval(listing1, {-2, 0, 3, 7}), (std::vector<float>{0, 0, 1, 1}));
}

TEST(Expression, PredicateThenElseExpressions) {
  EXPECT_EQ(eval("predicate(x, '>0', x * 10, x)", {-1, 2}), (std::vector<float>{-1, 20}));
}

TEST(Expression, Scans) {
  EXPECT_EQ(eval("running_max(x)", {1, 3, 2, 5, 4}), (std::vector<float>{1, 3, 3, 5, 5}));
  EXPECT_EQ(eval("running_sum(x)", {1, 2, 3}), (std::vector<float>{1, 3, 6}));
}

TEST(Expression, Shift) {
  EXPECT_EQ(eval("shift(x, 1)", {1, 2, 3}), (std::vector<float>{0, 1, 2}));
  EXPECT_EQ(eval("shift(x, -1)", {1, 2, 3}), (std::vector<float>{2, 3, 0}));
  EXPECT_EQ(eval("shift(x, 0)", {1, 2, 3}), (std::vector<float>{1, 2, 3}));
}

TEST(Expression, ScalarOnlyExpression) {
  EXPECT_EQ(eval("2 + 3", {}), (std::vector<float>{5}));
}

TEST(Expression, ParseErrors) {
  EXPECT_FALSE(Expression::parse("x +").ok());
  EXPECT_FALSE(Expression::parse("unknown_fn(x)").ok());
  EXPECT_FALSE(Expression::parse("(x").ok());
  EXPECT_FALSE(Expression::parse("x 'oops'").ok());
  EXPECT_FALSE(Expression::parse("predicate(x)").ok());            // no condition
  EXPECT_FALSE(Expression::parse("max(x)").ok());                  // arity
  EXPECT_FALSE(Expression::parse("x @ 2").ok());                   // bad char
  EXPECT_FALSE(Expression::parse("wave_duration(x)").ok());        // arity
}

TEST(WaveDuration, BasicRuns) {
  // Runs of ones: [3] then [2], min_len 2 -> lengths at run ends.
  EXPECT_EQ(wave_duration({1, 1, 1, 0, 1, 1}, 2), (std::vector<float>{0, 0, 3, 0, 0, 2}));
  // min_len 4 filters both.
  EXPECT_EQ(wave_duration({1, 1, 1, 0, 1, 1}, 4), (std::vector<float>(6, 0)));
}

TEST(WaveDuration, RunAtEndOfSeries) {
  EXPECT_EQ(wave_duration({0, 1, 1, 1}, 3), (std::vector<float>{0, 0, 0, 3}));
}

TEST(WaveDuration, AllOnesAndAllZeros) {
  EXPECT_EQ(wave_duration({1, 1, 1, 1}, 2), (std::vector<float>{0, 0, 0, 4}));
  EXPECT_EQ(wave_duration({0, 0, 0}, 1), (std::vector<float>{0, 0, 0}));
  EXPECT_EQ(wave_duration({}, 3), (std::vector<float>{}));
}

TEST(Expression, WaveDurationViaEngine) {
  EXPECT_EQ(eval("wave_duration(x, 2)", {1, 1, 0, 1, 1, 1}),
            (std::vector<float>{0, 2, 0, 0, 0, 3}));
  // Composition with predicate: threshold first, then run lengths.
  EXPECT_EQ(eval("wave_duration(predicate(x, '>5', 1, 0), 2)", {6, 7, 3, 9, 9, 9}),
            (std::vector<float>{0, 2, 0, 0, 0, 3}));
}

// Property-style sweep: invariants of wave_duration for random binary
// series and several min_len values.
class WaveDurationProperty : public ::testing::TestWithParam<int> {};

TEST_P(WaveDurationProperty, SumOfDurationsEqualsQualifyingDays) {
  const int min_len = GetParam();
  common::Rng rng(1000 + static_cast<std::uint64_t>(min_len));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> binary(120);
    for (auto& v : binary) v = rng.bernoulli(0.55) ? 1.0f : 0.0f;
    const std::vector<float> durations = wave_duration(binary, min_len);
    ASSERT_EQ(durations.size(), binary.size());

    // Reference: scan runs directly.
    float expected_sum = 0;
    float expected_max = 0;
    int expected_count = 0;
    int run = 0;
    for (std::size_t i = 0; i <= binary.size(); ++i) {
      if (i < binary.size() && binary[i] > 0.5f) {
        ++run;
      } else {
        if (run >= min_len) {
          expected_sum += static_cast<float>(run);
          expected_max = std::max(expected_max, static_cast<float>(run));
          ++expected_count;
        }
        run = 0;
      }
    }
    float sum = 0, max = 0;
    int count = 0;
    for (float d : durations) {
      sum += d;
      max = std::max(max, d);
      if (d > 0) ++count;
    }
    EXPECT_EQ(sum, expected_sum);
    EXPECT_EQ(max, expected_max);
    EXPECT_EQ(count, expected_count);
    // Every reported duration is at least min_len.
    for (float d : durations) {
      if (d > 0) {
        EXPECT_GE(d, static_cast<float>(min_len));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MinLengths, WaveDurationProperty, ::testing::Values(1, 2, 3, 6, 10));

// Parameterized check: predicate output is always binary for 1/0 branches.
class PredicateProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PredicateProperty, OutputIsBinary) {
  auto expr = Expression::parse(std::string("predicate(x, '") + GetParam() + "', 1, 0)");
  ASSERT_TRUE(expr.ok());
  common::Rng rng(9);
  std::vector<float> measure(64);
  for (auto& v : measure) v = static_cast<float>(rng.normal(0, 10));
  for (float v : expr->eval(measure)) {
    EXPECT_TRUE(v == 0.0f || v == 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Conditions, PredicateProperty,
                         ::testing::Values(">0", ">=1", "<0", "<=-1", "==0", "!=0"));

}  // namespace
}  // namespace climate::datacube

namespace climate::datacube {
namespace {

TEST(Expression, PredicateBroadcastsArrayBranches) {
  // then/else arrays select elementwise.
  EXPECT_EQ(eval("predicate(x, '>0', x * 2, x * -1)", {-2, 3}),
            (std::vector<float>{2, 6}));
}

TEST(Expression, NestedFunctionComposition) {
  EXPECT_EQ(eval("max(abs(x), running_max(x))", {-5, 2, -1}),
            (std::vector<float>{5, 2, 2}));
}

TEST(Expression, WhitespaceAndUnaryPlusTolerated) {
  EXPECT_EQ(eval("  + x   *  2 ", {3}), (std::vector<float>{6}));
}

TEST(Expression, ChainedComparisonsEvaluateLeftToRight) {
  // (x > 0) > 0 is the binary mask again.
  EXPECT_EQ(eval("x > 0 > 0", {-1, 2}), (std::vector<float>{0, 1}));
}

}  // namespace
}  // namespace climate::datacube

// ---------------------------------------------------------------------------
// Golden digests: seeded random expressions over the whole grammar.
// ---------------------------------------------------------------------------

namespace climate::datacube {
namespace {

// Draws random expression text over the whole grammar: every operator and
// function, both predicate spellings, the oph_ prefix, and nesting. A `row`
// subtree reads the measure; any other subtree is constant. wave_duration
// only wraps row subtrees; its constant form has its own test below.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  std::string draw(int depth, bool row) {
    if (depth == 0) return row ? pick({"x", "measure"}) : literal();
    auto sub = [&](bool r) { return draw(depth - 1, r); };
    // For two operands of a row subtree, at least one reads the measure.
    auto pair = [&]() -> std::pair<std::string, std::string> {
      const std::uint64_t k = row ? rng_.uniform_index(3) : 3;
      return {sub(k != 2), sub(k != 1 && k != 3)};
    };
    switch (rng_.uniform_index(row ? 12 : 10)) {
      case 0: {
        auto [a, b] = pair();
        const std::string text =
            a + " " + pick({"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!="}) + " " + b;
        return rng_.bernoulli(0.5) ? "(" + text + ")" : text;
      }
      case 1: {
        const std::string inner = sub(row);
        return pick({"-", "+"}) + (rng_.bernoulli(0.5) ? inner : "(" + inner + ")");
      }
      case 2: return pick({"abs", "sqrt", "exp", "log", "oph_abs"}) + "(" + sub(row) + ")";
      case 3: {
        auto [a, b] = pair();
        return pick({"min", "max", "pow"}) + "(" + a + ", " + b + ")";
      }
      case 4: {
        // Short form; at least one of input/then/else reads the measure.
        const std::uint64_t k = row ? rng_.uniform_index(3) : 3;
        return pick({"predicate", "oph_predicate"}) + "(" + sub(k == 0) + ", '" + condition() +
               "', " + sub(k == 1) + ", " + sub(k == 2) + ")";
      }
      case 5:
        // The 7-argument spelling of Listing 1, with string then/else.
        return "oph_predicate('OPH_INT','OPH_INT'," + sub(row) + ",'x','" + condition() + "','" +
               pick({"1", "0", "-2.5", "7"}) + "','" + pick({"0", "1", "3"}) + "')";
      case 6:
        // A mixed form: expression then, string else.
        return "predicate(" + sub(row) + ", '" + condition() + "', " + sub(false) + ", '" +
               pick({"4", "-1"}) + "')";
      case 7: return pick({"running_max", "running_sum"}) + "(" + sub(row) + ")";
      case 8:
        return "shift(" + sub(row) + ", " + pick({"-400", "-3", "-1", "0", "1", "2", "8", "400"}) +
               ")";
      case 9: {
        auto [a, b] = pair();
        return a + " " + pick({"<", ">="}) + " " + b + " " + pick({"==", "!="}) + " " + literal();
      }
      default:
        return "wave_duration(" + sub(true) + ", " +
               pick({"0", "1", "2", "3", "5", "2.7", "(1 + 1)"}) + ")";
    }
  }

 private:
  std::string pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.uniform_index(options.size()));
  }
  std::string literal() {
    return pick({"0", "1", "2", "0.5", "365", "3.25", ".5", "1e-3", "2.5e1", "7"});
  }
  std::string condition() {
    return pick({">", ">=", "<", "<=", "==", "!="}) + pick({"0", "1", "0.5", "-1", "2.5", "-0"});
  }

  common::Rng rng_;
};

// A row mixing ordinary values with NaN, +-0, +-inf and runs of ones (so
// comparisons hit their equality cases and divisions hit zero divisors).
std::vector<float> random_row(common::Rng& rng, std::size_t n) {
  std::vector<float> row(n);
  for (float& v : row) {
    switch (rng.uniform_index(12)) {
      case 0: v = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: v = std::numeric_limits<float>::infinity(); break;
      case 2: v = -std::numeric_limits<float>::infinity(); break;
      case 3: v = 0.0f; break;
      case 4: v = -0.0f; break;
      case 5: v = 0.5f; break;
      case 6: v = 2.0f; break;
      case 7:
      case 8:
      case 9: v = 1.0f; break;
      case 10: v = static_cast<float>(rng.uniform(-3, 3)); break;
      default: v = static_cast<float>(rng.uniform(-400, 400)); break;
    }
  }
  return row;
}

// FNV-1a over each output's length and float bits. IEEE 754 leaves the
// sign and payload of a NaN result unspecified, so every NaN hashes as one
// value; every other bit, signed zeros included, counts.
struct RowDigest {
  std::uint64_t value = 1469598103934665603ull;
  void add_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      value ^= p[i];
      value *= 1099511628211ull;
    }
  }
  void add(const std::vector<float>& out) {
    const std::uint64_t n = out.size();
    add_bytes(&n, sizeof(n));
    for (float v : out) {
      std::uint32_t bits = 0x7fc00000u;
      if (!std::isnan(v)) std::memcpy(&bits, &v, sizeof(bits));
      add_bytes(&bits, sizeof(bits));
    }
  }
};

// Digests recorded from the recursive tree evaluator that the compiled
// program replaced: 400 expressions, each evaluated on one random row of
// each length.
TEST(Expression, GoldenDigestsMatchTreeEvaluator) {
  constexpr int kExpressions = 400;
  ExprGen gen(20261017);
  std::vector<Expression> exprs;
  for (int e = 0; e < kExpressions; ++e) {
    const std::string text = gen.draw(1 + e % 5, true);
    auto expr = Expression::parse(text);
    ASSERT_TRUE(expr.ok()) << text << ": " << expr.status().to_string();
    exprs.push_back(*expr);
  }
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {1, 0x5e03a4502d203596ull},  {2, 0x3049d8c1d48417bcull},  {7, 0x88d56104b3504443ull},
      {8, 0x075e1fb569baeac6ull},  {9, 0x5f7d2b3942da02d1ull},  {31, 0xdddb60bdceceaa51ull},
      {365, 0x181ab29e1aca2de5ull},
  };
  for (const auto& [n, want] : golden) {
    common::Rng rng(7000 + n);
    RowDigest digest;
    for (const Expression& expr : exprs) digest.add(expr.eval(random_row(rng, n)));
    EXPECT_EQ(digest.value, want) << std::hex << "0x" << digest.value << std::dec
                                  << " for row length " << n;
  }
}

// A row of wave_duration input in runs: the row's stickiness sets how long
// its runs get, so min_len up to 400 is met. Ones are 1, +inf or in
// (0.5, 1); the rest are 0, 0.5, NaN, -inf or negative.
std::vector<float> runs_row(common::Rng& rng, std::size_t n) {
  const double stay = std::array{0.5, 0.9, 0.99, 0.999}[rng.uniform_index(4)];
  std::vector<float> row(n);
  bool one = rng.bernoulli(0.5);
  for (float& v : row) {
    if (!rng.bernoulli(stay)) one = !one;
    switch (rng.uniform_index(5)) {
      case 0: v = one ? std::numeric_limits<float>::infinity() : 0.5f; break;
      case 1:
        v = one ? static_cast<float>(rng.uniform(0.5000001, 1))
                : std::numeric_limits<float>::quiet_NaN();
        break;
      case 2: v = one ? 1.0f : -std::numeric_limits<float>::infinity(); break;
      case 3: v = one ? 1.0f : static_cast<float>(rng.uniform(-400, 0)); break;
      default: v = one ? 1.0f : 0.0f; break;
    }
  }
  return row;
}

// The lane kernel against the row kernel it replaces, on blocks of rows of
// every length up to 40 and random ones up to 1000, and min_len from the
// int range's bottom (clamped when the program is linked) past the row.
TEST(Expression, BlockWaveDurationMatchesRowKernel) {
  common::Rng rng(19);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t n = trial < 400 ? 1 + trial % 40 : 1 + rng.uniform_index(1000);
    const std::size_t count = 1 + rng.uniform_index(17);
    const long long len = static_cast<long long>(n);
    const long long min_lens[] = {
        INT_MIN, -1, 0, 1 + static_cast<long long>(rng.uniform_index(400)), len, len + 1};
    const long long min_len = min_lens[trial % std::size(min_lens)];
    const std::string text = "wave_duration(x, " + std::to_string(min_len) + ")";
    SCOPED_TRACE(text + " on " + std::to_string(count) + " rows of " + std::to_string(n));
    auto expr = Expression::parse(text);
    ASSERT_TRUE(expr.ok()) << expr.status().to_string();

    std::vector<float> block;
    for (std::size_t r = 0; r < count; ++r) {
      const std::vector<float> row = runs_row(rng, n);
      block.insert(block.end(), row.begin(), row.end());
    }
    std::vector<float> out(count * n);
    std::vector<float> scratch(count * expr->scratch_size(n));
    expr->eval_rows(block.data(), count, n, out.data(), scratch.data());
    for (std::size_t r = 0; r < count; ++r) {
      const auto row = block.begin() + static_cast<long>(r * n);
      const std::vector<float> want =
          wave_duration(std::vector<float>(row, row + static_cast<long>(n)),
                        static_cast<int>(min_len));
      ASSERT_EQ(std::memcmp(out.data() + r * n, want.data(), n * sizeof(float)), 0) << "row " << r;
    }
  }
}

// Every golden expression, plus constant and measure results, evaluated on
// blocks of 1 to 9 rows: each row's bits equal its evaluation alone.
TEST(Expression, BlockEvaluationMatchesPerRowEvaluation) {
  ExprGen gen(20261017);
  std::vector<std::string> texts = {"5", "wave_duration(1, 2) + 3", "x", "shift(measure, 0)"};
  for (int e = 0; e < 400; ++e) texts.push_back(gen.draw(1 + e % 5, true));
  common::Rng rng(1919);
  for (std::size_t e = 0; e < texts.size(); ++e) {
    auto expr = Expression::parse(texts[e]);
    ASSERT_TRUE(expr.ok()) << texts[e];
    for (std::size_t n : {1, 2, 7, 8, 9, 31, 365}) {
      const std::size_t count = 1 + (e + n) % 9;
      SCOPED_TRACE(texts[e] + " on " + std::to_string(count) + " rows of " + std::to_string(n));
      std::vector<float> block;
      for (std::size_t r = 0; r < count; ++r) {
        const std::vector<float> row = random_row(rng, n);
        block.insert(block.end(), row.begin(), row.end());
      }
      const std::size_t out_len = expr->output_length(n);
      std::vector<float> out(count * out_len);
      std::vector<float> scratch(count * expr->scratch_size(n));
      expr->eval_rows(block.data(), count, n, out.data(), scratch.data());
      for (std::size_t r = 0; r < count; ++r) {
        const auto row = block.begin() + static_cast<long>(r * n);
        RowDigest want, got;
        want.add(expr->eval(std::vector<float>(row, row + static_cast<long>(n))));
        got.add(std::vector<float>(out.begin() + static_cast<long>(r * out_len),
                                   out.begin() + static_cast<long>((r + 1) * out_len)));
        ASSERT_EQ(got.value, want.value) << "row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace climate::datacube

namespace climate::datacube {
namespace {

TEST(Expression, MalformedNumeralsAreInvalidArgument) {
  EXPECT_FALSE(Expression::parse("x + .a").ok());
  EXPECT_FALSE(Expression::parse("predicate(x, '>abc', 1, 0)").ok());
  EXPECT_FALSE(Expression::parse("x + 1e99").ok());  // out of float range
  EXPECT_FALSE(
      Expression::parse("oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','-','0')").ok());
}

TEST(Expression, BadConditionsAndArgumentsAreInvalidArgument) {
  EXPECT_FALSE(Expression::parse("predicate(x, '=1', 1, 0)").ok());
  EXPECT_FALSE(Expression::parse("predicate(x, '!1', 1, 0)").ok());
  EXPECT_FALSE(Expression::parse("wave_duration(x, x)").ok());  // min_len not constant
  EXPECT_FALSE(Expression::parse("shift(x, x)").ok());
  EXPECT_FALSE(Expression::parse("shift(x, exp(100))").ok());  // k out of int range
}

TEST(Expression, WaveDurationOfConstantBroadcasts) {
  // wave_duration of a constant is the constant of a length-1 run, and
  // broadcasts like any other constant.
  EXPECT_EQ(eval("x + wave_duration(1, 1)", {1, 2, 3}), (std::vector<float>{2, 3, 4}));
  EXPECT_EQ(eval("x * wave_duration(1, 2)", {1, 2, 3}), (std::vector<float>{0, 0, 0}));
  EXPECT_EQ(eval("wave_duration(1, 1)", {5, 5}), (std::vector<float>{1}));
  EXPECT_EQ(eval("predicate(wave_duration(1, 1), '>0', x, 0)", {4, 5}),
            (std::vector<float>{4, 5}));
}

TEST(Expression, ElementwiseIsAPropertyOfTheCompiledProgram) {
  // Elementwise programs are deferred by the datacube's apply; anything with
  // a scan or shift, or a constant result, is not elementwise.
  auto elementwise = [](const std::string& text) {
    auto expr = Expression::parse(text);
    EXPECT_TRUE(expr.ok()) << text;
    return expr->elementwise();
  };
  for (const char* text : {"x", "x * 2 + 1", "predicate(x, '>0', 1, 0)", "max(x, 3) > 2",
                           "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')",
                           "shift(x, 0) - 1", "x + running_sum(4)"}) {
    EXPECT_TRUE(elementwise(text)) << text;
  }
  for (const char* text : {"wave_duration(x, 3)", "running_sum(x) + x", "shift(x, 1)",
                           "predicate(running_max(x), '>0', 1, 0)", "5", "wave_duration(1, 1)"}) {
    EXPECT_FALSE(elementwise(text)) << text;
  }
  EXPECT_FALSE(Expression().elementwise());
}

}  // namespace
}  // namespace climate::datacube
