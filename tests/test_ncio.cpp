// Unit tests for the CDF-lite file format: round trips, attributes, headers
// of any size, error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "ncio/ncfile.hpp"

namespace climate::ncio {
namespace {

namespace fs = std::filesystem;

class NcioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("ncio_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(NcioTest, RoundTripFloatVariable) {
  auto writer = FileWriter::create(path("a.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("x", 4).ok());
  ASSERT_TRUE(writer->def_dim("y", 3).ok());
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"x", "y"}).ok());
  ASSERT_TRUE(writer->end_def().ok());
  std::vector<float> data(12);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i) * 1.5f;
  ASSERT_TRUE(writer->put_var("v", data.data(), data.size()).ok());
  ASSERT_TRUE(writer->close().ok());

  auto reader = FileReader::open(path("a.nc"));
  ASSERT_TRUE(reader.ok());
  auto shape = reader->var_shape("v");
  ASSERT_TRUE(shape.ok());
  EXPECT_EQ(*shape, (std::vector<std::uint64_t>{4, 3}));
  auto values = reader->read_floats("v");
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(*values, data);
}

TEST_F(NcioTest, AllDTypesRoundTrip) {
  auto writer = FileWriter::create(path("types.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 5).ok());
  ASSERT_TRUE(writer->def_var("f32", DType::kFloat32, {"n"}).ok());
  ASSERT_TRUE(writer->def_var("f64", DType::kFloat64, {"n"}).ok());
  ASSERT_TRUE(writer->def_var("i32", DType::kInt32, {"n"}).ok());
  ASSERT_TRUE(writer->def_var("i64", DType::kInt64, {"n"}).ok());
  ASSERT_TRUE(writer->end_def().ok());
  std::vector<float> f32 = {1, 2, 3, 4, 5};
  std::vector<double> f64 = {1.5, 2.5, 3.5, 4.5, 5.5};
  std::vector<std::int32_t> i32 = {-1, 0, 1, 2, 3};
  std::vector<std::int64_t> i64 = {10, 20, 30, 40, 1LL << 40};
  ASSERT_TRUE(writer->put_var("f32", f32.data(), 5).ok());
  ASSERT_TRUE(writer->put_var("f64", f64.data(), 5).ok());
  ASSERT_TRUE(writer->put_var("i32", i32.data(), 5).ok());
  ASSERT_TRUE(writer->put_var("i64", i64.data(), 5).ok());
  ASSERT_TRUE(writer->close().ok());

  auto reader = FileReader::open(path("types.nc"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_floats("f32"), f32);
  EXPECT_EQ(*reader->read_doubles("f64"), f64);
  auto i32_back = reader->read_doubles("i32");
  ASSERT_TRUE(i32_back.ok());
  EXPECT_EQ((*i32_back)[0], -1.0);
  auto i64_back = reader->read_doubles("i64");
  ASSERT_TRUE(i64_back.ok());
  EXPECT_EQ((*i64_back)[4], static_cast<double>(1LL << 40));
}

TEST_F(NcioTest, AttributesRoundTrip) {
  auto writer = FileWriter::create(path("attrs.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 2).ok());
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"n"}).ok());
  ASSERT_TRUE(writer->put_attr("", "title", std::string("test file")).ok());
  ASSERT_TRUE(writer->put_attr("", "year", static_cast<std::int64_t>(2026)).ok());
  ASSERT_TRUE(writer->put_attr("v", "scale", 2.5).ok());
  ASSERT_TRUE(writer->put_attr("v", "units", std::string("degC")).ok());
  ASSERT_TRUE(writer->end_def().ok());
  std::vector<float> data = {1, 2};
  ASSERT_TRUE(writer->put_var("v", data.data(), 2).ok());
  ASSERT_TRUE(writer->close().ok());

  auto reader = FileReader::open(path("attrs.nc"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(std::get<std::string>(*reader->attr("", "title")), "test file");
  EXPECT_EQ(std::get<std::int64_t>(*reader->attr("", "year")), 2026);
  EXPECT_DOUBLE_EQ(std::get<double>(*reader->attr("v", "scale")), 2.5);
  EXPECT_EQ(std::get<std::string>(*reader->attr("v", "units")), "degC");
  EXPECT_FALSE(reader->attr("v", "missing").ok());
  EXPECT_FALSE(reader->attr("w", "units").ok());
}

// Variables written in definition order stream out without seeking; any
// other order (or a rewrite) must still land at each variable's offset.
TEST_F(NcioTest, PutVarInAnyOrderLandsAtItsOffset) {
  auto writer = FileWriter::create(path("order.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 3).ok());
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(writer->def_var(name, DType::kFloat32, {"n"}).ok());
  }
  ASSERT_TRUE(writer->end_def().ok());
  const std::vector<float> a = {1, 2, 3}, b = {4, 5, 6}, c = {7, 8, 9}, stale = {0, 0, 0};
  ASSERT_TRUE(writer->put_var("c", c.data(), 3).ok());
  ASSERT_TRUE(writer->put_var("b", stale.data(), 3).ok());
  ASSERT_TRUE(writer->put_var("a", a.data(), 3).ok());
  ASSERT_TRUE(writer->put_var("b", b.data(), 3).ok());  // follows a: no seek
  ASSERT_TRUE(writer->close().ok());

  auto reader = FileReader::open(path("order.nc"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_floats("a"), a);
  EXPECT_EQ(*reader->read_floats("b"), b);
  EXPECT_EQ(*reader->read_floats("c"), c);
}

TEST_F(NcioTest, ErrorPaths) {
  auto writer = FileWriter::create(path("err.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 3).ok());
  EXPECT_FALSE(writer->def_dim("n", 4).ok());          // duplicate dim
  EXPECT_FALSE(writer->def_dim("z", 0).ok());          // zero length
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"n"}).ok());
  EXPECT_FALSE(writer->def_var("v", DType::kFloat32, {"n"}).ok());  // dup var
  EXPECT_FALSE(writer->def_var("w", DType::kFloat32, {"missing"}).ok());
  std::vector<float> data = {1, 2, 3};
  EXPECT_FALSE(writer->put_var("v", data.data(), 3).ok());  // before end_def
  ASSERT_TRUE(writer->end_def().ok());
  EXPECT_FALSE(writer->end_def().ok());                     // double end_def
  EXPECT_FALSE(writer->put_var("v", data.data(), 2).ok());  // wrong count
  EXPECT_FALSE(writer->put_var("w", data.data(), 3).ok());  // unknown var
  std::vector<double> dbl = {1, 2, 3};
  EXPECT_FALSE(writer->put_var("v", dbl.data(), 3).ok());   // wrong dtype
  ASSERT_TRUE(writer->put_var("v", data.data(), 3).ok());
  ASSERT_TRUE(writer->close().ok());

  EXPECT_FALSE(FileReader::open(path("nonexistent.nc")).ok());

  auto reader = FileReader::open(path("err.nc"));
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->read_floats("missing").ok());
}

TEST_F(NcioTest, RejectsNonCdfFiles) {
  {
    std::ofstream junk(path("junk.nc"), std::ios::binary);
    junk << "this is not a cdf-lite file at all";
  }
  EXPECT_FALSE(FileReader::open(path("junk.nc")).ok());
}

TEST_F(NcioTest, TotalBytesMatchesFileSize) {
  auto writer = FileWriter::create(path("size.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 100).ok());
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"n"}).ok());
  ASSERT_TRUE(writer->end_def().ok());
  std::vector<float> data(100, 1.0f);
  ASSERT_TRUE(writer->put_var("v", data.data(), 100).ok());
  const std::uint64_t declared = writer->total_bytes();
  ASSERT_TRUE(writer->close().ok());
  EXPECT_EQ(fs::file_size(path("size.nc")), declared);
}

}  // namespace
}  // namespace climate::ncio

namespace climate::ncio {
namespace {

TEST_F(NcioTest, ManyVariablesHeaderSurvives) {
  auto writer = FileWriter::create(path("many.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 3).ok());
  for (int v = 0; v < 60; ++v) {
    ASSERT_TRUE(writer->def_var("variable_" + std::to_string(v), DType::kFloat32, {"n"}).ok());
  }
  ASSERT_TRUE(writer->end_def().ok());
  std::vector<float> data = {1, 2, 3};
  for (int v = 0; v < 60; ++v) {
    ASSERT_TRUE(writer->put_var("variable_" + std::to_string(v), data.data(), 3).ok());
  }
  ASSERT_TRUE(writer->close().ok());
  auto reader = FileReader::open(path("many.nc"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->vars().size(), 60u);
  EXPECT_EQ(*reader->read_floats("variable_59"), data);
}

/// Writes a file whose global attribute "blob" is `blob`, followed by one
/// variable, so the header spans about blob.size() bytes.
void write_blob_file(const std::string& path, const std::string& blob,
                     const std::vector<float>& data) {
  auto writer = FileWriter::create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", data.size()).ok());
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"n"}).ok());
  ASSERT_TRUE(writer->put_attr("", "blob", blob).ok());
  ASSERT_TRUE(writer->end_def().ok());
  ASSERT_TRUE(writer->put_var("v", data.data(), data.size()).ok());
  ASSERT_TRUE(writer->close().ok());
}

// A header larger than any fixed prefix a reader might read up front.
TEST_F(NcioTest, HeaderLargerThanOneMiBOpens) {
  std::string blob(2u << 20, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>('a' + i % 23);
  const std::vector<float> data = {1.5f, -2.5f, 3.5f};
  write_blob_file(path("big_header.nc"), blob, data);
  auto reader = FileReader::open(path("big_header.nc"));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(std::get<std::string>(*reader->attr("", "blob")), blob);
  EXPECT_EQ(*reader->read_floats("v"), data);
}

// Headers ending just before, at and just after the reader's first probe
// (and its doublings) parse the same as any other.
TEST_F(NcioTest, HeadersAroundProbeSizesOpen) {
  const std::vector<float> data = {4.0f, 5.0f};
  for (std::size_t len : {0u, 3900u, 4000u, 4020u, 4040u, 4100u, 8150u, 8200u, 20000u}) {
    SCOPED_TRACE(len);
    const std::string blob(len, 'x');
    write_blob_file(path("probe.nc"), blob, data);
    auto reader = FileReader::open(path("probe.nc"));
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    EXPECT_EQ(std::get<std::string>(*reader->attr("", "blob")).size(), len);
    EXPECT_EQ(*reader->read_floats("v"), data);
  }
}

// Cutting a file anywhere inside its header is reported, never misparsed.
TEST_F(NcioTest, TruncatedHeaderRejected) {
  write_blob_file(path("whole.nc"), std::string(6000, 'y'), {1.0f});
  std::ifstream in(path("whole.nc"), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  for (std::size_t cut : {std::size_t{4}, std::size_t{12}, std::size_t{4096}, std::size_t{6000},
                          bytes.size() - 1}) {
    SCOPED_TRACE(cut);
    {
      std::ofstream out(path("cut.nc"), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_FALSE(FileReader::open(path("cut.nc")).ok());
  }
}

// A dimension length whose product with the element size wraps past 2^64
// is rejected at open, not handed to read_floats as a tiny variable.
TEST_F(NcioTest, OverflowingDimensionLengthRejected) {
  auto writer = FileWriter::create(path("wrap.nc"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("n", 3).ok());
  ASSERT_TRUE(writer->def_var("v", DType::kFloat32, {"n"}).ok());
  ASSERT_TRUE(writer->end_def().ok());
  const std::vector<float> data = {1, 2, 3};
  ASSERT_TRUE(writer->put_var("v", data.data(), data.size()).ok());
  ASSERT_TRUE(writer->close().ok());
  {
    // Header: magic, u32 version, u32 ndims, then dim 0 as a u32 name
    // length, the name "n" and its u64 length.
    std::fstream file(path("wrap.nc"), std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t length = std::uint64_t{1} << 62;  // 2^62 * 4 bytes wraps to 0
    file.seekp(4 + 4 + 4 + 4 + 1);
    file.write(reinterpret_cast<const char*>(&length), sizeof(length));
    ASSERT_TRUE(file.good());
  }
  auto reader = FileReader::open(path("wrap.nc"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), common::StatusCode::kDataLoss)
      << reader.status().to_string();
}

}  // namespace
}  // namespace climate::ncio
