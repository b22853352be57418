#include "hpcwaas/containers.hpp"

#include <tuple>

#include "common/strings.hpp"

namespace climate::hpcwaas {

double ContainerImageService::package_build_ms(const std::string& package,
                                               const PlatformSpec& platform) {
  // Deterministic pseudo-cost: hash-derived "compile size" in a plausible
  // range, heavier for MPI-linked builds.
  const std::uint64_t h = common::fnv1a64(package + "@" + platform.arch);
  const double base = 40.0 + static_cast<double>(h % 400);
  const bool mpi_linked = package.find("mpi") != std::string::npos ||
                          package.find("compss") != std::string::npos ||
                          package.find("esm") != std::string::npos;
  return mpi_linked ? base * 2.5 : base;
}

Result<ImageManifest> ContainerImageService::build(const ImageSpec& spec) {
  if (spec.name.empty()) return Status::InvalidArgument("image spec needs a name");
  std::lock_guard<std::mutex> lock(mutex_);

  ImageManifest manifest;
  manifest.name = spec.name;
  manifest.platform = spec.platform;

  std::string cumulative = spec.base + "|" + spec.platform.name + "|" + spec.platform.arch + "|" +
                           spec.platform.mpi;
  // Base layer.
  std::vector<std::string> all_packages;
  all_packages.push_back(spec.base);
  all_packages.insert(all_packages.end(), spec.packages.begin(), spec.packages.end());

  for (const std::string& package : all_packages) {
    cumulative += ";" + package;
    const std::string digest = "sha:" + common::hex64(common::fnv1a64(cumulative));
    auto it = layer_cache_.find(digest);
    if (it != layer_cache_.end()) {
      ImageLayer layer = it->second;
      layer.from_cache = true;
      ++manifest.cache_hits;
      manifest.layers.push_back(std::move(layer));
      continue;
    }
    ImageLayer layer;
    layer.digest = digest;
    layer.package = package;
    layer.size_bytes = 1'000'000 + (common::fnv1a64(package) % 200) * 1'000'000;
    layer.from_cache = false;
    manifest.build_ms += package_build_ms(package, spec.platform);
    layer_cache_[digest] = layer;
    manifest.layers.push_back(std::move(layer));
  }
  manifest.id = manifest.layers.empty() ? "sha:empty" : manifest.layers.back().digest;
  images_[manifest.id] = manifest;
  return manifest;
}

Result<ImageManifest> ContainerImageService::get(const std::string& image_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = images_.find(image_id);
  if (it == images_.end()) return Status::NotFound("no image '" + image_id + "'");
  return it->second;
}

}  // namespace climate::hpcwaas
