#ifndef PA_GEO_RTREE_H_
#define PA_GEO_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/latlng.h"

namespace pa::geo {

/// Dynamic R-tree over points with int32 payloads (POI ids), after Guttman
/// (1984) with the quadratic split heuristic — the spatial access method the
/// paper cites ([44]–[46]) and the index behind the linear-interpolation
/// augmentation baselines (nearest-POI and most-popular-POI-near-p queries)
/// and FPMC-LR's localized-region candidate restriction.
///
/// Supported queries:
///   * `Nearest(p, k)`  — k nearest entries by haversine distance, best-first
///     search with bounding-box lower-bound pruning.
///   * `WithinRadius(p, r)` — all entries within r kilometres, nearest
///     first; `IdsWithinRadius(p, r)` — their ids alone, unsorted.
///
/// The tree owns its entries; ids need not be unique. Each leaf keeps its
/// entries' unit vectors beside them (24 bytes per entry), so the radius
/// queries decide almost every entry by its squared chord to `p` and run
/// the haversine only inside a rounding band around the radius.
class RTree {
 public:
  struct Entry {
    LatLng point;
    int32_t id = 0;
  };

  struct Neighbor {
    int32_t id = 0;
    LatLng point;
    double distance_km = 0.0;
  };

  /// `max_entries` is Guttman's M (node capacity); min fill is M / 2.
  explicit RTree(int max_entries = 8);
  ~RTree();

  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  void Insert(const LatLng& point, int32_t id);

  /// Builds a tree from a flat list (insert-in-order bulk load).
  static RTree Build(const std::vector<Entry>& entries, int max_entries = 8);

  /// k nearest neighbours ordered by increasing distance. Returns fewer than
  /// k when the tree has fewer entries.
  std::vector<Neighbor> Nearest(const LatLng& p, int k) const;

  /// All entries whose `HaversineKm` from `p` is at most `radius_km`, ordered
  /// by increasing distance; each `distance_km` is that `HaversineKm`.
  std::vector<Neighbor> WithinRadius(const LatLng& p, double radius_km) const;

  /// The ids of the entries `WithinRadius` returns, in traversal order: the
  /// same tree walk and chord test, without distances or the sort by
  /// distance.
  std::vector<int32_t> IdsWithinRadius(const LatLng& p,
                                       double radius_km) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Height of the tree (1 for a single leaf). Exposed for tests.
  int Height() const;
  /// Validates structural invariants (fill factors, box containment);
  /// returns false and the reason via `why` if violated. Exposed for tests.
  bool CheckInvariants(std::string* why = nullptr) const;

  /// Implementation detail, public only so the .cc file's free helper
  /// functions can name it; not part of the supported API.
  struct Node;

 private:
  std::unique_ptr<Node> root_;
  int max_entries_;
  size_t size_ = 0;
};

}  // namespace pa::geo

#endif  // PA_GEO_RTREE_H_
