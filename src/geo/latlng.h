#ifndef PA_GEO_LATLNG_H_
#define PA_GEO_LATLNG_H_

#include <cmath>
#include <string>

namespace pa::geo {

/// Mean Earth radius, kilometres.
inline constexpr double kEarthRadiusKm = 6371.0088;

/// The globe's bounds: |lat| <= 90 and |lng| <= 180. NaN and infinities
/// fail (every comparison with NaN is false).
inline bool IsValidLat(double lat) { return std::fabs(lat) <= 90.0; }
inline bool IsValidLng(double lng) { return std::fabs(lng) <= 180.0; }

/// A geographic coordinate in degrees.
struct LatLng {
  double lat = 0.0;
  double lng = 0.0;

  bool operator==(const LatLng& other) const = default;
  std::string ToString() const;
  /// A point on the globe (`IsValidLat` and `IsValidLng`).
  bool IsValid() const { return IsValidLat(lat) && IsValidLng(lng); }
};

/// Great-circle (haversine) distance in kilometres.
double HaversineKm(const LatLng& a, const LatLng& b);

/// Point at fraction `f` in [0, 1] along the great circle from `a` to `b` —
/// the "straight shortest path" the paper's linear-interpolation baselines
/// assume users travel along (§IV-C). Degenerates gracefully when a == b.
LatLng InterpolateGreatCircle(const LatLng& a, const LatLng& b, double f);

/// Axis-aligned bounding box in degree space. Longitude wrap-around is not
/// modelled; check-in datasets in this library live well inside (-180, 180).
struct BoundingBox {
  double min_lat = 0.0;
  double min_lng = 0.0;
  double max_lat = 0.0;
  double max_lng = 0.0;

  static BoundingBox FromPoint(const LatLng& p) {
    return {p.lat, p.lng, p.lat, p.lng};
  }
  static BoundingBox Empty();

  bool Contains(const LatLng& p) const {
    return p.lat >= min_lat && p.lat <= max_lat && p.lng >= min_lng &&
           p.lng <= max_lng;
  }
  /// Grows to cover `o`.
  void Extend(const BoundingBox& o);
  void Extend(const LatLng& p) { Extend(FromPoint(p)); }
  /// Area in squared degrees (the R-tree split heuristic currency).
  double AreaDeg2() const {
    return (max_lat - min_lat) * (max_lng - min_lng);
  }
  /// Area of the union with `o` minus own area (enlargement cost).
  double EnlargementDeg2(const BoundingBox& o) const;

  /// Lower bound on the great-circle distance (km) from `p` to any point
  /// in the box; zero when `p` is inside. It never exceeds `HaversineKm`
  /// from `p` to a box point, so the R-tree may prune a box whose bound
  /// exceeds a query radius or the k-th best distance.
  double MinDistanceKm(const LatLng& p) const;
};

}  // namespace pa::geo

#endif  // PA_GEO_LATLNG_H_
