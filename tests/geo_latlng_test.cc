#include "geo/latlng.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pa::geo {
namespace {

TEST(HaversineTest, ZeroDistanceForSamePoint) {
  LatLng p{48.8566, 2.3522};
  EXPECT_DOUBLE_EQ(HaversineKm(p, p), 0.0);
}

TEST(HaversineTest, KnownCityPairs) {
  // Paris <-> London: roughly 344 km.
  EXPECT_NEAR(HaversineKm({48.8566, 2.3522}, {51.5074, -0.1278}), 344.0, 5.0);
  // New York <-> Los Angeles: roughly 3936 km.
  EXPECT_NEAR(HaversineKm({40.7128, -74.0060}, {34.0522, -118.2437}), 3936.0,
              30.0);
}

TEST(HaversineTest, OneDegreeLatitudeIsAbout111Km) {
  EXPECT_NEAR(HaversineKm({0.0, 0.0}, {1.0, 0.0}), 111.19, 0.5);
}

TEST(HaversineTest, SymmetryProperty) {
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    LatLng a{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    LatLng b{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    EXPECT_DOUBLE_EQ(HaversineKm(a, b), HaversineKm(b, a));
  }
}

TEST(HaversineTest, TriangleInequalityProperty) {
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    LatLng a{rng.Uniform(-60, 60), rng.Uniform(-120, 120)};
    LatLng b{rng.Uniform(-60, 60), rng.Uniform(-120, 120)};
    LatLng c{rng.Uniform(-60, 60), rng.Uniform(-120, 120)};
    EXPECT_LE(HaversineKm(a, c),
              HaversineKm(a, b) + HaversineKm(b, c) + 1e-6);
  }
}

TEST(InterpolateTest, EndpointsExact) {
  LatLng a{10.0, 20.0}, b{-5.0, 40.0};
  LatLng p0 = InterpolateGreatCircle(a, b, 0.0);
  LatLng p1 = InterpolateGreatCircle(a, b, 1.0);
  EXPECT_NEAR(p0.lat, a.lat, 1e-9);
  EXPECT_NEAR(p0.lng, a.lng, 1e-9);
  EXPECT_NEAR(p1.lat, b.lat, 1e-9);
  EXPECT_NEAR(p1.lng, b.lng, 1e-9);
}

TEST(InterpolateTest, MidpointOnEquator) {
  LatLng a{0.0, 0.0}, b{0.0, 10.0};
  LatLng mid = InterpolateGreatCircle(a, b, 0.5);
  EXPECT_NEAR(mid.lat, 0.0, 1e-9);
  EXPECT_NEAR(mid.lng, 5.0, 1e-9);
}

TEST(InterpolateTest, MidpointEquidistantProperty) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    LatLng a{rng.Uniform(-60, 60), rng.Uniform(-120, 120)};
    LatLng b{rng.Uniform(-60, 60), rng.Uniform(-120, 120)};
    LatLng mid = InterpolateGreatCircle(a, b, 0.5);
    EXPECT_NEAR(HaversineKm(a, mid), HaversineKm(mid, b),
                1e-6 * (1.0 + HaversineKm(a, b)));
  }
}

TEST(InterpolateTest, FractionSplitsDistanceProportionally) {
  LatLng a{10.0, -3.0}, b{12.0, 4.0};
  const double total = HaversineKm(a, b);
  LatLng q = InterpolateGreatCircle(a, b, 0.25);
  EXPECT_NEAR(HaversineKm(a, q), 0.25 * total, 1e-6 * total);
}

TEST(InterpolateTest, DegenerateIdenticalPoints) {
  LatLng a{42.0, 13.0};
  LatLng p = InterpolateGreatCircle(a, a, 0.7);
  EXPECT_DOUBLE_EQ(p.lat, a.lat);
  EXPECT_DOUBLE_EQ(p.lng, a.lng);
}

TEST(InterpolateTest, ClampsFraction) {
  LatLng a{0.0, 0.0}, b{0.0, 10.0};
  LatLng p = InterpolateGreatCircle(a, b, 1.5);
  EXPECT_NEAR(p.lng, 10.0, 1e-9);
}

TEST(BoundingBoxTest, ContainsIsBoundaryInclusive) {
  BoundingBox box{0.0, 0.0, 10.0, 10.0};
  EXPECT_TRUE(box.Contains({5.0, 5.0}));
  EXPECT_TRUE(box.Contains({0.0, 10.0}));  // Boundary inclusive.
  EXPECT_FALSE(box.Contains({-0.1, 5.0}));
}

TEST(BoundingBoxTest, EmptyExtendsToPoint) {
  BoundingBox box = BoundingBox::Empty();
  box.Extend(LatLng{3.0, 4.0});
  EXPECT_TRUE(box.Contains({3.0, 4.0}));
  EXPECT_DOUBLE_EQ(box.AreaDeg2(), 0.0);
}

TEST(BoundingBoxTest, EnlargementIsZeroForContainedBox) {
  BoundingBox box{0.0, 0.0, 10.0, 10.0};
  BoundingBox inner{2.0, 2.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(box.EnlargementDeg2(inner), 0.0);
  EXPECT_GT(inner.EnlargementDeg2(box), 0.0);
}

TEST(BoundingBoxTest, MinDistanceZeroInside) {
  BoundingBox box{0.0, 0.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(box.MinDistanceKm({5.0, 5.0}), 0.0);
}

TEST(BoundingBoxTest, MinDistanceIsLowerBound) {
  util::Rng rng(4);
  BoundingBox box{10.0, 10.0, 20.0, 20.0};
  for (int i = 0; i < 100; ++i) {
    LatLng outside{rng.Uniform(-50, 5), rng.Uniform(-50, 5)};
    LatLng inside{rng.Uniform(10, 20), rng.Uniform(10, 20)};
    EXPECT_LE(box.MinDistanceKm(outside),
              HaversineKm(outside, inside) + 1e-6);
  }

  // A box beside a point at 60N. The nearest point of its west edge lies
  // poleward of p (the foot of the perpendicular from p to the edge's
  // meridian), so p's latitude clamped into the box is not the nearest
  // point, and the haversine to it overstates the distance by ~0.2 km.
  const LatLng p{60.0, 0.0};
  const BoundingBox beside{59.0, 5.0, 61.0, 5.2};
  const double kPi = 3.14159265358979323846;
  const double foot_lat =
      std::atan(std::tan(60.0 * kPi / 180.0) / std::cos(5.0 * kPi / 180.0)) *
      180.0 / kPi;
  const double bound = beside.MinDistanceKm(p);
  EXPECT_NEAR(bound, HaversineKm(p, {foot_lat, 5.0}), 1e-6);
  std::vector<LatLng> edge = {{foot_lat, 5.0}, {60.094499, 5.0}};
  for (int i = 0; i <= 200; ++i) edge.push_back({59.0 + 0.01 * i, 5.0});
  for (const LatLng& q : edge) {
    EXPECT_LE(bound, HaversineKm(p, q)) << q.ToString();
  }
  for (int i = 0; i < 100; ++i) {
    const LatLng q{rng.Uniform(59.0, 61.0), rng.Uniform(5.0, 5.2)};
    EXPECT_LE(bound, HaversineKm(p, q)) << q.ToString();
  }
  // North of the box, the latitude gap is the bound, exact up to the
  // rounding shade.
  const LatLng north{62.0, 5.1};
  EXPECT_LE(beside.MinDistanceKm(north), HaversineKm(north, {61.0, 5.1}));
  EXPECT_NEAR(beside.MinDistanceKm(north), HaversineKm(north, {61.0, 5.1}),
              1e-9);
}

}  // namespace
}  // namespace pa::geo
