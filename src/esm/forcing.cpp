#include "esm/forcing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ncio/ncfile.hpp"

namespace climate::esm {

ForcingTable ForcingTable::from_scenario(Scenario scenario, int start_year, int years) {
  ForcingTable table;
  table.start_year_ = start_year;
  table.co2_.reserve(static_cast<std::size_t>(years));
  // Anchored at ~410 ppm in 2015; growth per year by scenario.
  auto growth = [&](int year) {
    switch (scenario) {
      case Scenario::kHistorical: return 1.7;           // late-20th-century rate
      case Scenario::kSsp245: return year < 2050 ? 2.1 : 0.9;
      case Scenario::kSsp585: return year < 2050 ? 2.9 : 4.6;
    }
    return 2.0;
  };
  double co2 = 410.0 + 1.9 * (start_year - 2015);
  for (int y = 0; y < years; ++y) {
    table.co2_.push_back(co2);
    co2 += growth(start_year + y);
  }
  return table;
}

double ForcingTable::co2_ppm(int year) const {
  if (co2_.empty()) return 410.0;
  const long idx = std::clamp<long>(year - start_year_, 0, static_cast<long>(co2_.size()) - 1);
  return co2_[static_cast<std::size_t>(idx)];
}

double ForcingTable::warming_c(int year, double sensitivity_c) const {
  return sensitivity_c * std::log2(co2_ppm(year) / 280.0);
}

Status ForcingTable::save(const std::string& path) const {
  auto writer = ncio::FileWriter::create(path);
  if (!writer.ok()) return writer.status();
  auto dim = writer->def_dim("year", std::max<std::size_t>(1, co2_.size()));
  if (!dim.ok()) return dim.status();
  auto var = writer->def_var("co2_ppm", ncio::DType::kFloat64, {"year"});
  if (!var.ok()) return var.status();
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr("", "start_year", static_cast<std::int64_t>(start_year_)));
  CLIMATE_RETURN_IF_ERROR(writer->end_def());
  std::vector<double> values = co2_;
  if (values.empty()) values.push_back(410.0);
  CLIMATE_RETURN_IF_ERROR(writer->put_var("co2_ppm", values.data(), values.size()));
  return writer->close();
}

Result<ForcingTable> ForcingTable::load(const std::string& path) {
  auto reader = ncio::FileReader::open(path);
  if (!reader.ok()) return reader.status();
  auto start = reader->attr("", "start_year");
  if (!start.ok()) return start.status();
  const std::int64_t* start_year = std::get_if<std::int64_t>(&*start);
  if (start_year == nullptr || *start_year < std::numeric_limits<int>::min() ||
      *start_year > std::numeric_limits<int>::max()) {
    return Status::DataLoss("forcing file: 'start_year' is not an int");
  }
  auto values = reader->read_doubles("co2_ppm");
  if (!values.ok()) return values.status();
  ForcingTable table;
  table.start_year_ = static_cast<int>(*start_year);
  table.co2_ = std::move(*values);
  return table;
}

}  // namespace climate::esm
