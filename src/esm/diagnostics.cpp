#include "esm/diagnostics.hpp"

#include <algorithm>

#include "ncio/ncfile.hpp"

namespace climate::esm {

const DailyDiagnostics& DiagnosticsRecorder::record(const DailyFields& day,
                                                    const common::LatLonGrid& grid) {
  DailyDiagnostics row;
  row.day_of_run = day.day_of_run;
  double min_psl = 1e30;
  double max_wspd = 0.0;
  double max_tas = -1e30;
  for (std::size_t i = 0; i < grid.nlat(); ++i) {
    const double w = grid.area_weight(i);
    for (std::size_t j = 0; j < grid.nlon(); ++j) {
      row.global_mean_tas_c += w * day.daily[kTas].at(i, j);
      row.global_mean_pr_mmday += w * day.daily[kPr].at(i, j);
      row.ice_area_fraction += w * day.daily[kSic].at(i, j);
      max_tas = std::max(max_tas, static_cast<double>(day.daily[kTas].at(i, j)));
      for (const auto& psl : day.steps[kPsl]) {
        min_psl = std::min(min_psl, static_cast<double>(psl.at(i, j)));
      }
      for (const auto& wspd : day.steps[kWspd]) {
        max_wspd = std::max(max_wspd, static_cast<double>(wspd.at(i, j)));
      }
    }
  }
  row.min_psl_hpa = min_psl;
  row.max_wspd_ms = max_wspd;
  row.max_tas_anomaly_c = max_tas - row.global_mean_tas_c;
  rows_.push_back(row);
  return rows_.back();
}

common::Status DiagnosticsRecorder::save(const std::string& path) const {
  auto writer = ncio::FileWriter::create(path);
  if (!writer.ok()) return writer.status();
  const std::size_t n = std::max<std::size_t>(1, rows_.size());
  auto dim = writer->def_dim("day", n);
  if (!dim.ok()) return dim.status();
  static const char* kVars[] = {"global_mean_tas", "global_mean_pr", "min_psl",
                                "max_wspd",        "ice_area",       "max_tas_anomaly"};
  for (const char* name : kVars) {
    auto var = writer->def_var(name, ncio::DType::kFloat64, {"day"});
    if (!var.ok()) return var.status();
  }
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr("", "rows", static_cast<std::int64_t>(rows_.size())));
  CLIMATE_RETURN_IF_ERROR(writer->end_def());

  std::vector<double> column(n, 0.0);
  auto put = [&](const char* name, auto getter) -> common::Status {
    for (std::size_t i = 0; i < rows_.size(); ++i) column[i] = getter(rows_[i]);
    return writer->put_var(name, column.data(), column.size());
  };
  CLIMATE_RETURN_IF_ERROR(put("global_mean_tas", [](const DailyDiagnostics& r) { return r.global_mean_tas_c; }));
  CLIMATE_RETURN_IF_ERROR(put("global_mean_pr", [](const DailyDiagnostics& r) { return r.global_mean_pr_mmday; }));
  CLIMATE_RETURN_IF_ERROR(put("min_psl", [](const DailyDiagnostics& r) { return r.min_psl_hpa; }));
  CLIMATE_RETURN_IF_ERROR(put("max_wspd", [](const DailyDiagnostics& r) { return r.max_wspd_ms; }));
  CLIMATE_RETURN_IF_ERROR(put("ice_area", [](const DailyDiagnostics& r) { return r.ice_area_fraction; }));
  CLIMATE_RETURN_IF_ERROR(put("max_tas_anomaly", [](const DailyDiagnostics& r) { return r.max_tas_anomaly_c; }));
  return writer->close();
}

common::Result<std::vector<DailyDiagnostics>> DiagnosticsRecorder::load(const std::string& path) {
  auto reader = ncio::FileReader::open(path);
  if (!reader.ok()) return reader.status();
  auto count_attr = reader->attr("", "rows");
  if (!count_attr.ok()) return count_attr.status();
  const std::int64_t* rows_attr = std::get_if<std::int64_t>(&*count_attr);
  if (rows_attr == nullptr || *rows_attr < 0) {
    return common::Status::DataLoss("diagnostics file: 'rows' is not a non-negative integer");
  }
  const auto count = static_cast<std::size_t>(*rows_attr);
  auto tas = reader->read_doubles("global_mean_tas");
  auto pr = reader->read_doubles("global_mean_pr");
  auto psl = reader->read_doubles("min_psl");
  auto wspd = reader->read_doubles("max_wspd");
  auto ice = reader->read_doubles("ice_area");
  auto anom = reader->read_doubles("max_tas_anomaly");
  if (!tas.ok() || !pr.ok() || !psl.ok() || !wspd.ok() || !ice.ok() || !anom.ok()) {
    return common::Status::DataLoss("diagnostics file missing variables");
  }
  for (const auto* column : {&*tas, &*pr, &*psl, &*wspd, &*ice, &*anom}) {
    if (column->size() < count) {
      return common::Status::DataLoss("diagnostics file: 'rows' exceeds its columns");
    }
  }
  std::vector<DailyDiagnostics> rows(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows[i].day_of_run = static_cast<int>(i);
    rows[i].global_mean_tas_c = (*tas)[i];
    rows[i].global_mean_pr_mmday = (*pr)[i];
    rows[i].min_psl_hpa = (*psl)[i];
    rows[i].max_wspd_ms = (*wspd)[i];
    rows[i].ice_area_fraction = (*ice)[i];
    rows[i].max_tas_anomaly_c = (*anom)[i];
  }
  return rows;
}

}  // namespace climate::esm
