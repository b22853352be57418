// Unit tests for the common utilities: grid geometry, strings, RNG
// determinism, thread pool, images.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/grid.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace climate::common {
namespace {

TEST(LatLonGrid, CoordinatesSpanGlobe) {
  LatLonGrid grid(96, 144);
  EXPECT_EQ(grid.nlat(), 96u);
  EXPECT_EQ(grid.nlon(), 144u);
  EXPECT_NEAR(grid.lat(0), -90.0 + 0.5 * 180.0 / 96, 1e-9);
  EXPECT_NEAR(grid.lat(95), 90.0 - 0.5 * 180.0 / 96, 1e-9);
  EXPECT_NEAR(grid.lon(0), 0.0, 1e-9);
  EXPECT_LT(grid.lon(143), 360.0);
}

TEST(LatLonGrid, AreaWeightsSumToOne) {
  LatLonGrid grid(48, 96);
  double total = 0.0;
  for (std::size_t i = 0; i < grid.nlat(); ++i) {
    total += grid.area_weight(i) * static_cast<double>(grid.nlon());
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LatLonGrid, WrapLon) {
  LatLonGrid grid(10, 20);
  EXPECT_EQ(grid.wrap_lon(-1), 19u);
  EXPECT_EQ(grid.wrap_lon(20), 0u);
  EXPECT_EQ(grid.wrap_lon(41), 1u);
}

TEST(GreatCircle, KnownDistances) {
  // Quarter of the equator.
  EXPECT_NEAR(great_circle_km(0, 0, 0, 90), kEarthRadiusKm * kPi / 2, 1.0);
  // Pole to equator.
  EXPECT_NEAR(great_circle_km(90, 0, 0, 0), kEarthRadiusKm * kPi / 2, 1.0);
  // Identity.
  EXPECT_NEAR(great_circle_km(45, 120, 45, 120), 0.0, 1e-9);
}

TEST(Field, BasicStats) {
  Field field(4, 4, 2.0f);
  field.at(1, 1) = 10.0f;
  field.at(2, 2) = -6.0f;
  EXPECT_FLOAT_EQ(field.max(), 10.0f);
  EXPECT_FLOAT_EQ(field.min(), -6.0f);
  EXPECT_NEAR(field.mean(), (14 * 2.0 + 10.0 - 6.0) / 16.0, 1e-6);
}

TEST(Bilinear, InterpolatesMidpoints) {
  Field field(2, 2);
  field.at(0, 0) = 0.0f;
  field.at(0, 1) = 2.0f;
  field.at(1, 0) = 4.0f;
  field.at(1, 1) = 6.0f;
  EXPECT_FLOAT_EQ(bilinear_sample(field, 0.0, 0.0), 0.0f);
  EXPECT_FLOAT_EQ(bilinear_sample(field, 0.5, 0.0), 2.0f);
  EXPECT_FLOAT_EQ(bilinear_sample(field, 0.0, 0.5), 1.0f);
  EXPECT_FLOAT_EQ(bilinear_sample(field, 0.5, 0.5), 3.0f);
}

TEST(Regrid, PreservesConstantFields) {
  Field field(8, 16, 3.5f);
  Field out = regrid_bilinear(field, 4, 8);
  ASSERT_EQ(out.nlat(), 4u);
  ASSERT_EQ(out.nlon(), 8u);
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 3.5f);
}

TEST(Regrid, UpsamplePreservesMean) {
  Field field(6, 12);
  Rng rng(3);
  for (auto& v : field.data()) v = static_cast<float>(rng.uniform(0, 10));
  Field up = regrid_bilinear(field, 24, 48);
  EXPECT_NEAR(up.mean(), field.mean(), 0.35);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(split("a,b,,c", ',')[2], "");
  EXPECT_EQ(trim("  hello \t\n"), "hello");
}

TEST(Strings, FormatAndBytes) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(1024.0 * 1024.0 * 271), "271.0 MB");
}

TEST(Strings, Fnv1a64Stable) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(hex64(0).size(), 16u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  constexpr int kSamples = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 1.0, 0.03);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [&](std::size_t i) {
        if (i == 3) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(Image, WritesPgm) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  Field field(8, 16);
  for (std::size_t i = 0; i < field.size(); ++i) field[i] = static_cast<float>(i);
  ASSERT_TRUE(write_pgm(dir + "/t.pgm", field, 0.0f, 127.0f).ok());
  EXPECT_GT(std::filesystem::file_size(dir + "/t.pgm"), 8u * 16u);
}

TEST(Image, AsciiMapHasExpectedShape) {
  Field field(16, 32, 1.0f);
  const std::string art = ascii_map(field, 32);
  const std::vector<std::string> rows = split(art, '\n');
  EXPECT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 32u);
}

}  // namespace
}  // namespace climate::common
