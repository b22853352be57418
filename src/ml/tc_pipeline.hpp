// The ML tropical-cyclone localization pipeline of paper section 5.4:
//  (i)  post-processing of model output — regridding, tiling into
//       non-overlapping patches, feature scaling;
//  (ii) inference through a pre-trained CNN that detects TC presence in a
//       patch and regresses the centre ("eye") position;
//  (iii) geo-referencing of predicted centres back onto the global map.
//
// The CNN consumes four channels (sea-level pressure, wind speed, relative
// vorticity, temperature), mirroring the paper's input variable list.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/grid.hpp"
#include "common/status.hpp"
#include "ml/network.hpp"

namespace climate::ml {

using common::Field;
using common::LatLonGrid;
using common::Result;
using common::Status;

/// Number of input channels (psl, wspd, vort850, tas).
inline constexpr std::size_t kTcChannels = 4;

/// One tile of the global grid prepared for the CNN.
struct TcPatch {
  std::size_t row0 = 0;  ///< Patch origin (grid row).
  std::size_t col0 = 0;  ///< Patch origin (grid column).
  Tensor features;       ///< [kTcChannels, P, P], feature-scaled.

  // Training labels (from ground truth).
  bool has_tc = false;
  float center_row_frac = 0.5f;  ///< TC centre within the patch, [0,1].
  float center_col_frac = 0.5f;
};

/// A geo-referenced detection.
struct TcDetection {
  double lat = 0.0;
  double lon = 0.0;
  double confidence = 0.0;  ///< CNN presence probability.
};

/// Per-channel affine feature scaling (fixed climatological constants so
/// training and inference apply identical transforms).
float scale_feature(std::size_t channel, float raw);

/// Tiles four global fields into non-overlapping PxP patches (rows/cols not
/// covered by a full patch are dropped, as in the paper's tiling step).
std::vector<TcPatch> make_patches(const Field& psl, const Field& wspd, const Field& vort,
                                  const Field& tas, std::size_t patch);

class TcTiling;

/// The CNN-based localizer.
class TcLocalizer {
 public:
  /// Builds the (untrained) network for PxP patches.
  explicit TcLocalizer(std::size_t patch = 16, std::uint64_t seed = 7);

  /// One training epoch over labeled patches (mini-batch Adam); returns the
  /// mean combined loss (BCE presence + masked MSE offsets).
  float train_epoch(const std::vector<TcPatch>& patches, std::size_t batch_size = 16);

  /// Raw per-patch outputs: {presence prob, row frac, col frac}.
  struct Output {
    float presence = 0.0f;
    float row_frac = 0.5f;
    float col_frac = 0.5f;
  };
  std::vector<Output> infer(const std::vector<TcPatch>& patches);

  /// Full pipeline on one step's model fields: tile through `tiling` (whose
  /// patch must equal patch()), infer, geo-reference above `threshold`.
  std::vector<TcDetection> detect(const Field& psl, const Field& wspd, const Field& vort,
                                  const Field& tas, const TcTiling& tiling,
                                  double threshold = 0.5);

  Status save(const std::string& path) { return net_.save_weights(path); }
  Status load(const std::string& path) { return net_.load_weights(path); }

  std::size_t patch() const { return patch_; }
  Sequential& net() { return net_; }

 private:
  std::size_t patch_;
  common::Rng rng_;
  Sequential net_;
  std::unique_ptr<AdamOptimizer> optimizer_;
};

/// Labels patches against ground-truth cyclone centres (grid coordinates):
/// a patch is positive if a centre falls inside it.
void label_patches(std::vector<TcPatch>& patches, std::size_t patch,
                   const std::vector<std::pair<double, double>>& centers_rowcol);

/// The CNN's view of a model grid (pipeline steps i and iii): the grid that
/// is tiled into PxP patches and the lat/lon <-> (row, col) mapping on it.
/// Truth labels and detections both go through it, so training and
/// inference agree whenever they use the same tiling.
class TcTiling {
 public:
  /// The model grid itself, not regridded: the tiling pretraining uses.
  static TcTiling native(const LatLonGrid& model, std::size_t patch);
  /// The model grid halved and rounded down to whole patches: the tiling the
  /// workflow infers on (bounded memory, patches still meaningful).
  static TcTiling half_resolution(const LatLonGrid& model, std::size_t patch);

  std::size_t patch() const { return patch_; }
  std::size_t nlat() const { return nlat_; }
  std::size_t nlon() const { return nlon_; }

  /// `field` bilinearly regridded onto the tiled grid.
  Field regrid(const Field& field) const;
  /// One step's fields tiled into patches; a field not yet on the tiled grid
  /// is regridded first (so a daily field can be regridded once per day).
  std::vector<TcPatch> tile(const Field& psl, const Field& wspd, const Field& vort,
                            const Field& tas) const;

  /// Fractional (row, col) of a lat/lon; cell centres at whole numbers.
  std::pair<double, double> row_col(double lat, double lon) const;
  /// Lat/lon of a fractional (row, col): the inverse of row_col.
  std::pair<double, double> lat_lon(double row, double col) const;

  /// Geo-references the outputs (one per patch) whose presence reaches
  /// `threshold`: each predicted centre back onto the map.
  std::vector<TcDetection> georeference(const std::vector<TcPatch>& patches,
                                        const std::vector<TcLocalizer::Output>& outputs,
                                        double threshold) const;

 private:
  TcTiling(std::size_t patch, std::size_t nlat, std::size_t nlon)
      : patch_(patch), nlat_(nlat), nlon_(nlon) {}

  std::size_t patch_;
  std::size_t nlat_;
  std::size_t nlon_;
};

}  // namespace climate::ml
