// Container Image Creation service (paper section 4.1: "automates the
// creation of the container images for workflows, including the code as well
// as all the required software compiled for the target HPC platform").
//
// Builds layered image manifests from a software specification for a target
// platform. Layers are content-addressed (hash of the cumulative package
// list + platform), and a layer cache makes warm rebuilds cheap — the
// cold/warm build asymmetry the HPCWaaS deployment bench (FIG1) measures.
// Build cost is simulated deterministically from package "compile sizes".
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace climate::hpcwaas {

using common::Result;
using common::Status;

/// Target platform of an image build (HPC systems differ, which is why the
/// service exists).
struct PlatformSpec {
  std::string name = "zeus";      ///< Cluster name.
  std::string arch = "x86_64";
  std::string mpi = "openmpi4";   ///< MPI flavour compiled against.
  bool operator<(const PlatformSpec& other) const {
    return std::tie(name, arch, mpi) < std::tie(other.name, other.arch, other.mpi);
  }
};

/// What to build: base environment plus an ordered package list.
struct ImageSpec {
  std::string name;
  std::string base = "ubuntu22.04";
  std::vector<std::string> packages;  ///< e.g. {"pycompss", "pyophidia", "tensorflow"}.
  PlatformSpec platform;
};

/// One image layer.
struct ImageLayer {
  std::string digest;       ///< Content hash of cumulative packages + platform.
  std::string package;      ///< Package installed by this layer.
  std::uint64_t size_bytes = 0;
  bool from_cache = false;
};

/// A finished image.
struct ImageManifest {
  std::string id;           ///< "sha:<hash>" of the top layer.
  std::string name;
  PlatformSpec platform;
  std::vector<ImageLayer> layers;
  double build_ms = 0.0;    ///< Simulated build time.
  std::size_t cache_hits = 0;

  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const ImageLayer& layer : layers) total += layer.size_bytes;
    return total;
  }
};

/// The build service with its layer cache.
class ContainerImageService {
 public:
  /// Builds (or retrieves from cache) an image for the spec.
  Result<ImageManifest> build(const ImageSpec& spec);

  /// Looks up a finished image by id.
  Result<ImageManifest> get(const std::string& image_id) const;

  /// Simulated per-package build cost [ms] — deterministic in the package
  /// name and platform; exposed for the bench's reporting.
  static double package_build_ms(const std::string& package, const PlatformSpec& platform);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ImageLayer> layer_cache_;        // digest -> layer
  std::map<std::string, ImageManifest> images_;          // id -> manifest
};

}  // namespace climate::hpcwaas
