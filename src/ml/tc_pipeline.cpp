#include "ml/tc_pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"

namespace climate::ml {

float scale_feature(std::size_t channel, float raw) {
  switch (channel) {
    case 0: return (raw - 1013.0f) / 20.0f;  // psl [hPa]
    case 1: return raw / 30.0f;              // wind speed [m/s]
    case 2: return raw / 10.0f;              // vorticity [1e-5/s]
    case 3: return (raw - 15.0f) / 20.0f;    // temperature [degC]
  }
  return raw;
}

std::vector<TcPatch> make_patches(const Field& psl, const Field& wspd, const Field& vort,
                                  const Field& tas, std::size_t patch) {
  const std::size_t nlat = psl.nlat();
  const std::size_t nlon = psl.nlon();
  const std::size_t rows = nlat / patch;
  const std::size_t cols = nlon / patch;
  std::vector<TcPatch> patches;
  patches.reserve(rows * cols);
  const Field* channels[kTcChannels] = {&psl, &wspd, &vort, &tas};
  for (std::size_t pr = 0; pr < rows; ++pr) {
    for (std::size_t pc = 0; pc < cols; ++pc) {
      TcPatch p;
      p.row0 = pr * patch;
      p.col0 = pc * patch;
      p.features = Tensor({kTcChannels, patch, patch});
      for (std::size_t c = 0; c < kTcChannels; ++c) {
        for (std::size_t y = 0; y < patch; ++y) {
          for (std::size_t x = 0; x < patch; ++x) {
            p.features[(c * patch + y) * patch + x] =
                scale_feature(c, channels[c]->at(p.row0 + y, p.col0 + x));
          }
        }
      }
      patches.push_back(std::move(p));
    }
  }
  return patches;
}

void label_patches(std::vector<TcPatch>& patches, std::size_t patch,
                   const std::vector<std::pair<double, double>>& centers_rowcol) {
  for (TcPatch& p : patches) {
    p.has_tc = false;
    p.center_row_frac = 0.5f;
    p.center_col_frac = 0.5f;
    for (const auto& [row, col] : centers_rowcol) {
      if (row >= static_cast<double>(p.row0) && row < static_cast<double>(p.row0 + patch) &&
          col >= static_cast<double>(p.col0) && col < static_cast<double>(p.col0 + patch)) {
        p.has_tc = true;
        p.center_row_frac = static_cast<float>((row - static_cast<double>(p.row0)) /
                                               static_cast<double>(patch));
        p.center_col_frac = static_cast<float>((col - static_cast<double>(p.col0)) /
                                               static_cast<double>(patch));
        break;
      }
    }
  }
}

TcLocalizer::TcLocalizer(std::size_t patch, std::uint64_t seed) : patch_(patch), rng_(seed) {
  // Patch is halved twice by pooling; require divisibility.
  const std::size_t after_pool = patch / 4;
  net_.add(std::make_unique<Conv2D>(kTcChannels, 8, 3, rng_))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Conv2D>(8, 16, 3, rng_))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(16 * after_pool * after_pool, 64, rng_))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(64, 3, rng_))
      .add(std::make_unique<Sigmoid>());
  optimizer_ = std::make_unique<AdamOptimizer>(net_.parameters(), 2e-3f);
}

float TcLocalizer::train_epoch(const std::vector<TcPatch>& patches, std::size_t batch_size) {
  if (patches.empty()) return 0.0f;
  OBS_SPAN("ml", "train_epoch");
  OBS_SCOPED_LATENCY("ml.train_epoch_ns");
  // Shuffled index order for this epoch.
  std::vector<std::size_t> order(patches.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i-- > 1;) {
    std::swap(order[i], order[rng_.uniform_index(i + 1)]);
  }

  float total_loss = 0.0f;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(order.size(), begin + batch_size);
    const std::size_t B = end - begin;
    Tensor batch({B, kTcChannels, patch_, patch_});
    Tensor target({B, 3});
    Tensor mask({B, 3});
    for (std::size_t b = 0; b < B; ++b) {
      const TcPatch& p = patches[order[begin + b]];
      std::copy(p.features.data(), p.features.data() + p.features.size(),
                batch.data() + b * p.features.size());
      target.at2(b, 0) = p.has_tc ? 1.0f : 0.0f;
      target.at2(b, 1) = p.center_row_frac;
      target.at2(b, 2) = p.center_col_frac;
      mask.at2(b, 0) = 0.0f;                       // presence handled by BCE
      mask.at2(b, 1) = p.has_tc ? 1.0f : 0.0f;     // offsets only on positives
      mask.at2(b, 2) = p.has_tc ? 1.0f : 0.0f;
    }

    net_.zero_grad();
    Tensor pred = net_.forward(batch, /*training=*/true);

    // Combined loss: BCE on column 0, masked MSE on columns 1-2.
    Tensor presence_pred({B, 1}), presence_target({B, 1});
    for (std::size_t b = 0; b < B; ++b) {
      presence_pred.at2(b, 0) = pred.at2(b, 0);
      presence_target.at2(b, 0) = target.at2(b, 0);
    }
    Tensor bce_grad;
    const float presence_loss = bce_loss(presence_pred, presence_target, &bce_grad);
    Tensor mse_grad;
    const float offset_loss = mse_loss(pred, target, mask, &mse_grad);

    Tensor grad({B, 3});
    for (std::size_t b = 0; b < B; ++b) {
      grad.at2(b, 0) = bce_grad.at2(b, 0) + mse_grad.at2(b, 0);
      grad.at2(b, 1) = mse_grad.at2(b, 1);
      grad.at2(b, 2) = mse_grad.at2(b, 2);
    }
    net_.backward(grad);
    optimizer_->step();

    total_loss += presence_loss + offset_loss;
    ++batches;
  }
  return batches ? total_loss / static_cast<float>(batches) : 0.0f;
}

std::vector<TcLocalizer::Output> TcLocalizer::infer(const std::vector<TcPatch>& patches) {
  OBS_SPAN("ml", "tc_inference");
  OBS_SCOPED_LATENCY("ml.infer_ns");
  OBS_COUNTER_ADD("ml.patches_inferred", patches.size());
  std::vector<Output> outputs;
  outputs.reserve(patches.size());
  constexpr std::size_t kChunk = 64;
  for (std::size_t begin = 0; begin < patches.size(); begin += kChunk) {
    const std::size_t end = std::min(patches.size(), begin + kChunk);
    const std::size_t B = end - begin;
    Tensor batch({B, kTcChannels, patch_, patch_});
    for (std::size_t b = 0; b < B; ++b) {
      const TcPatch& p = patches[begin + b];
      std::copy(p.features.data(), p.features.data() + p.features.size(),
                batch.data() + b * p.features.size());
    }
    Tensor pred = net_.forward(batch, /*training=*/false);
    for (std::size_t b = 0; b < B; ++b) {
      outputs.push_back({pred.at2(b, 0), pred.at2(b, 1), pred.at2(b, 2)});
    }
  }
  return outputs;
}

std::vector<TcDetection> TcLocalizer::detect(const Field& psl, const Field& wspd,
                                             const Field& vort, const Field& tas,
                                             const TcTiling& tiling, double threshold) {
  OBS_SPAN("ml", "tc_detect");
  OBS_SCOPED_LATENCY("ml.detect_ns");
  const std::vector<TcPatch> patches = tiling.tile(psl, wspd, vort, tas);
  return tiling.georeference(patches, infer(patches), threshold);
}

TcTiling TcTiling::native(const LatLonGrid& model, std::size_t patch) {
  return TcTiling(patch, model.nlat(), model.nlon());
}

TcTiling TcTiling::half_resolution(const LatLonGrid& model, std::size_t patch) {
  return TcTiling(patch, (model.nlat() / (2 * patch)) * patch,
                  (model.nlon() / (2 * patch)) * patch);
}

Field TcTiling::regrid(const Field& field) const {
  return common::regrid_bilinear(field, nlat_, nlon_);
}

std::vector<TcPatch> TcTiling::tile(const Field& psl, const Field& wspd, const Field& vort,
                                    const Field& tas) const {
  const Field* fields[kTcChannels] = {&psl, &wspd, &vort, &tas};
  Field regridded[kTcChannels];
  for (std::size_t c = 0; c < kTcChannels; ++c) {
    if (fields[c]->nlat() != nlat_ || fields[c]->nlon() != nlon_) {
      regridded[c] = regrid(*fields[c]);
      fields[c] = &regridded[c];
    }
  }
  return make_patches(*fields[0], *fields[1], *fields[2], *fields[3], patch_);
}

std::pair<double, double> TcTiling::row_col(double lat, double lon) const {
  return {(lat + 90.0) / 180.0 * static_cast<double>(nlat_) - 0.5,
          lon / 360.0 * static_cast<double>(nlon_) - 0.5};
}

std::pair<double, double> TcTiling::lat_lon(double row, double col) const {
  return {-90.0 + (row + 0.5) * 180.0 / static_cast<double>(nlat_),
          (col + 0.5) * 360.0 / static_cast<double>(nlon_)};
}

std::vector<TcDetection> TcTiling::georeference(const std::vector<TcPatch>& patches,
                                                const std::vector<TcLocalizer::Output>& outputs,
                                                double threshold) const {
  std::vector<TcDetection> detections;
  for (std::size_t i = 0; i < patches.size(); ++i) {
    if (outputs[i].presence < threshold) continue;
    const double row = static_cast<double>(patches[i].row0) +
                       static_cast<double>(outputs[i].row_frac) * static_cast<double>(patch_);
    const double col = static_cast<double>(patches[i].col0) +
                       static_cast<double>(outputs[i].col_frac) * static_cast<double>(patch_);
    const auto [lat, lon] = lat_lon(row, col);
    detections.push_back({lat, lon, outputs[i].presence});
  }
  return detections;
}

}  // namespace climate::ml
