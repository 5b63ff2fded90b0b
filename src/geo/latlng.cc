#include "geo/latlng.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace pa::geo {

namespace {

constexpr double kPi = 3.14159265358979323846;

double Radians(double deg) { return deg * kPi / 180.0; }
double Degrees(double rad) { return rad * 180.0 / kPi; }

}  // namespace

std::string LatLng::ToString() const {
  std::ostringstream os;
  os << "(" << lat << ", " << lng << ")";
  return os.str();
}

double HaversineKm(const LatLng& a, const LatLng& b) {
  const double lat1 = Radians(a.lat);
  const double lat2 = Radians(b.lat);
  const double dlat = Radians(b.lat - a.lat);
  const double dlng = Radians(b.lng - a.lng);
  const double s = std::sin(dlat / 2.0) * std::sin(dlat / 2.0) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlng / 2.0) *
                       std::sin(dlng / 2.0);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(s)));
}

LatLng InterpolateGreatCircle(const LatLng& a, const LatLng& b, double f) {
  f = std::clamp(f, 0.0, 1.0);
  const double d = HaversineKm(a, b) / kEarthRadiusKm;  // Angular distance.
  if (d < 1e-12) return a;

  const double lat1 = Radians(a.lat), lng1 = Radians(a.lng);
  const double lat2 = Radians(b.lat), lng2 = Radians(b.lng);
  const double sin_d = std::sin(d);
  const double wa = std::sin((1.0 - f) * d) / sin_d;
  const double wb = std::sin(f * d) / sin_d;

  const double x = wa * std::cos(lat1) * std::cos(lng1) +
                   wb * std::cos(lat2) * std::cos(lng2);
  const double y = wa * std::cos(lat1) * std::sin(lng1) +
                   wb * std::cos(lat2) * std::sin(lng2);
  const double z = wa * std::sin(lat1) + wb * std::sin(lat2);

  return {Degrees(std::atan2(z, std::sqrt(x * x + y * y))),
          Degrees(std::atan2(y, x))};
}

BoundingBox BoundingBox::Empty() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  return {inf, inf, -inf, -inf};
}

void BoundingBox::Extend(const BoundingBox& o) {
  min_lat = std::min(min_lat, o.min_lat);
  min_lng = std::min(min_lng, o.min_lng);
  max_lat = std::max(max_lat, o.max_lat);
  max_lng = std::max(max_lng, o.max_lng);
}

double BoundingBox::EnlargementDeg2(const BoundingBox& o) const {
  BoundingBox merged = *this;
  merged.Extend(o);
  return merged.AreaDeg2() - AreaDeg2();
}

double BoundingBox::MinDistanceKm(const LatLng& p) const {
  // The larger of two true lower bounds, as a central angle. Outside the
  // latitude range, every box point is at least the latitude gap away.
  // Outside the longitude range, every box point lies beyond the great
  // circle of the nearer edge meridian, which is asin(cos lat_p sin |dlng|)
  // away. (Clamping p into the box instead is not a bound: a meridian
  // edge's nearest point lies poleward of p's latitude.)
  double angle = 0.0;
  if (p.lat < min_lat) angle = Radians(min_lat - p.lat);
  if (p.lat > max_lat) angle = Radians(p.lat - max_lat);
  const double dlng = p.lng < min_lng   ? min_lng - p.lng
                      : p.lng > max_lng ? p.lng - max_lng
                                        : 0.0;
  if (dlng > 0.0) {
    angle = std::max(angle, std::asin(std::cos(Radians(p.lat)) *
                                      std::sin(Radians(dlng))));
  }
  // Shaded down so rounding never lifts it above HaversineKm to a point on
  // the box edge.
  return kEarthRadiusKm * angle * (1.0 - 1e-12);
}

}  // namespace pa::geo
