#include "geo/rtree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pa::geo {
namespace {

std::vector<RTree::Entry> RandomEntries(int n, util::Rng& rng,
                                        double extent = 2.0) {
  std::vector<RTree::Entry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries.push_back(
        {{40.0 + rng.Uniform(0, extent), -100.0 + rng.Uniform(0, extent)},
         i});
  }
  return entries;
}

// Brute-force references.
std::vector<int32_t> BruteNearest(const std::vector<RTree::Entry>& entries,
                                  const LatLng& p, int k) {
  std::vector<int32_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end(), [&](int32_t a, int32_t b) {
    return HaversineKm(p, entries[a].point) < HaversineKm(p, entries[b].point);
  });
  ids.resize(std::min<size_t>(ids.size(), static_cast<size_t>(k)));
  return ids;
}

std::vector<int32_t> BruteRadius(const std::vector<RTree::Entry>& entries,
                                 const LatLng& p, double r) {
  std::vector<int32_t> ids;
  for (const auto& e : entries) {
    if (HaversineKm(p, e.point) <= r) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The radii every radius-query test sweeps: below zero, both zeros, tiny,
// city and continental scales, beyond half the circumference, NaN and +inf.
const double kSweepRadiiKm[] = {-1.0,
                                -0.0,
                                0.0,
                                1e-6,
                                1e-3,
                                2.0,
                                15.0,
                                500.0,
                                20100.0,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()};

// The radius exactly at `HaversineKm(p, e)` and one ulp either side of it:
// the radii where a chord test without its rounding band goes wrong.
std::vector<double> BoundaryRadii(const LatLng& p, const LatLng& e) {
  const double r = HaversineKm(p, e);
  return {std::nextafter(r, 0.0), r,
          std::nextafter(r, std::numeric_limits<double>::infinity())};
}

// Both radius queries at (p, r) against the brute-force haversine scan: the
// same id set, `WithinRadius` nearest first, and each of its distances
// bitwise `HaversineKm`.
void ExpectRadiusQueriesMatchBruteForce(
    const RTree& tree, const std::vector<RTree::Entry>& entries,
    const LatLng& p, double r) {
  const std::vector<int32_t> want = BruteRadius(entries, p, r);
  const std::vector<RTree::Neighbor> within = tree.WithinRadius(p, r);
  std::vector<int32_t> got;
  for (size_t i = 0; i < within.size(); ++i) {
    got.push_back(within[i].id);
    EXPECT_EQ(std::bit_cast<uint64_t>(within[i].distance_km),
              std::bit_cast<uint64_t>(HaversineKm(p, within[i].point)))
        << p.ToString() << " r=" << r << " id " << within[i].id;
    if (i > 0) {
      EXPECT_LE(within[i - 1].distance_km, within[i].distance_km);
    }
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << "WithinRadius at " << p.ToString() << " r=" << r;
  std::vector<int32_t> ids = tree.IdsWithinRadius(p, r);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, want) << "IdsWithinRadius at " << p.ToString()
                       << " r=" << r;
}

// A leaf beside p = (60, 0) whose west edge's nearest point to p, the last
// entry, lies poleward of p: 277.7230 km away, while the haversine to p's
// latitude clamped into the box reads 277.9215 km.
const LatLng kHighLatQuery{60.0, 0.0};
std::vector<RTree::Entry> HighLatitudeLeaf() {
  return {{{59.0, 5.0}, 0}, {{61.0, 5.2}, 1}, {{60.094499, 5.0}, 2}};
}

// That leaf, a nearer-looking point on the other side (277.8200 km) and
// four padding points on each side: two leaves, one per side. (The ninth
// insert splits the root leaf with five points east and four west.)
std::vector<RTree::Entry> HighLatitudeTwoLeaves() {
  std::vector<RTree::Entry> entries = HighLatitudeLeaf();
  for (const LatLng& q : {LatLng{60.0, -4.998170}, LatLng{59.5, -5.1},
                          LatLng{60.5, -5.1}, LatLng{59.2, -5.2},
                          LatLng{59.5, 5.1}, LatLng{60.5, 5.1},
                          LatLng{60.8, -5.2}, LatLng{59.2, 5.2},
                          LatLng{60.8, 5.2}}) {
    entries.push_back({q, static_cast<int32_t>(entries.size())});
  }
  return entries;
}

TEST(RTreeTest, EmptyTreeQueries) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Nearest({0, 0}, 3).empty());
  EXPECT_TRUE(tree.WithinRadius({0, 0}, 100).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RTreeTest, SingleEntry) {
  RTree tree;
  tree.Insert({40.0, -100.0}, 7);
  auto nn = tree.Nearest({41.0, -100.0}, 5);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 7);
  EXPECT_NEAR(nn[0].distance_km, 111.19, 0.5);
}

TEST(RTreeTest, SplitsPreserveInvariants) {
  util::Rng rng(1);
  RTree tree(4);  // Small fanout forces many splits.
  auto entries = RandomEntries(200, rng);
  for (const auto& e : entries) {
    tree.Insert(e.point, e.id);
    std::string why;
    ASSERT_TRUE(tree.CheckInvariants(&why)) << why << " at size "
                                            << tree.size();
  }
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_GT(tree.Height(), 1);
}

TEST(RTreeTest, NearestMatchesBruteForce) {
  util::Rng rng(2);
  auto entries = RandomEntries(300, rng);
  RTree tree = RTree::Build(entries);
  for (int q = 0; q < 50; ++q) {
    LatLng p{40.0 + rng.Uniform(0, 2.0), -100.0 + rng.Uniform(0, 2.0)};
    auto got = tree.Nearest(p, 5);
    auto expected = BruteNearest(entries, p, 5);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Compare by distance (ties may reorder ids).
      EXPECT_NEAR(got[i].distance_km,
                  HaversineKm(p, entries[expected[i]].point), 1e-9);
    }
  }

  // A bound that clamps p into the box puts the east leaf behind the west
  // point, so Nearest would return that farther point first.
  const std::vector<RTree::Entry> two_leaves = HighLatitudeTwoLeaves();
  RTree high = RTree::Build(two_leaves);
  ASSERT_EQ(high.Height(), 2);
  for (int k = 1; k <= static_cast<int>(two_leaves.size()); ++k) {
    auto got = high.Nearest(kHighLatQuery, k);
    auto expected = BruteNearest(two_leaves, kHighLatQuery, k);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // The padding is mirrored east to west, so compare distances.
      EXPECT_EQ(got[i].distance_km,
                HaversineKm(kHighLatQuery, two_leaves[expected[i]].point))
          << "k=" << k << " rank " << i;
    }
  }
  EXPECT_EQ(high.Nearest(kHighLatQuery, 1).front().id, 2);
}

TEST(RTreeTest, NearestResultsSortedAscending) {
  util::Rng rng(3);
  RTree tree = RTree::Build(RandomEntries(150, rng));
  auto nn = tree.Nearest({41.0, -99.0}, 20);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].distance_km, nn[i].distance_km);
  }
}

TEST(RTreeTest, WithinRadiusMatchesBruteForce) {
  util::Rng rng(4);
  auto entries = RandomEntries(300, rng);
  // Two far entries: one near the antipode of (41, -99), where the chord
  // flattens out, and one near the north pole.
  entries.push_back({{-40.7, 80.6}, 300});
  entries.push_back({{89.9, 10.0}, 301});
  RTree tree = RTree::Build(entries);
  const LatLng centre{41.0, -99.0};
  for (double radius : {1.0, 10.0, 50.0, 500.0}) {
    ExpectRadiusQueriesMatchBruteForce(tree, entries, centre, radius);
  }
  for (const LatLng& p : {centre, entries[5].point}) {
    for (double radius : kSweepRadiiKm) {
      ExpectRadiusQueriesMatchBruteForce(tree, entries, p, radius);
    }
  }
  // Radii at an entry's exact distance and one ulp either side, from the
  // centre, from an entry and from the pole's neighbourhood.
  for (const LatLng& p : {centre, entries[17].point, LatLng{89.5, -170.0}}) {
    for (size_t k = 0; k < entries.size(); k += 7) {
      for (double radius : BoundaryRadii(p, entries[k].point)) {
        ExpectRadiusQueriesMatchBruteForce(tree, entries, p, radius);
      }
    }
    for (int32_t far : {300, 301}) {
      for (double radius : BoundaryRadii(p, entries[far].point)) {
        ExpectRadiusQueriesMatchBruteForce(tree, entries, p, radius);
      }
    }
  }

  // The leaf's nearest entry lies inside the radius, and a bound that
  // clamps p into the box reads 0.19 km beyond it.
  for (const auto& high_entries :
       {HighLatitudeLeaf(), HighLatitudeTwoLeaves()}) {
    RTree high = RTree::Build(high_entries);
    const double radius = 277.7330;
    const std::vector<int32_t> want =
        BruteRadius(high_entries, kHighLatQuery, radius);
    ASSERT_EQ(want, std::vector<int32_t>{2});
    std::vector<int32_t> got;
    for (const auto& n : high.WithinRadius(kHighLatQuery, radius)) {
      got.push_back(n.id);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(high.IdsWithinRadius(kHighLatQuery, radius), want);
  }

  // Radius exactly HaversineKm(p, e), with e on the near edge of its leaf
  // box and fillers behind it: the box bound must not round above that
  // distance. At these 0.39904 degree offsets the unshaded latitude gap
  // (or, on the equator, longitude gap) computes larger than the
  // haversine.
  const LatLng boundary[][2] = {
      {{40.0, -100.0}, {40.39904, -100.0}},  // Due north.
      {{40.0, -100.0}, {40.0, -99.60096}},   // Due east.
      {{0.0, 10.0}, {0.0, 10.39904}},        // On the equator.
      {{60.0, 0.0}, {60.39904, 0.0}},        // Due north at 60N.
      {{60.0, 0.0}, {60.094499, 5.0}},       // The meridian edge's foot.
  };
  for (const auto& [p, e] : boundary) {
    const double dlat = e.lat - p.lat, dlng = e.lng - p.lng;
    std::vector<RTree::Entry> edge = {{e, 0}};
    for (int i = 1; i <= 3; ++i) {
      edge.push_back({{e.lat + (dlat == 0.0 ? 0.1 : dlat) * i * 0.1,
                       e.lng + (dlng == 0.0 ? 0.1 : dlng) * i * 0.1},
                      i});
    }
    RTree tree = RTree::Build(edge);
    const double radius = HaversineKm(p, e);
    const std::vector<int32_t> want = BruteRadius(edge, p, radius);
    ASSERT_EQ(want, std::vector<int32_t>{0}) << e.ToString();
    std::vector<int32_t> got;
    for (const auto& n : tree.WithinRadius(p, radius)) got.push_back(n.id);
    EXPECT_EQ(got, want) << e.ToString();
    EXPECT_EQ(tree.IdsWithinRadius(p, radius), want) << e.ToString();
    // One ulp inside the entry's distance finds nothing; one ulp beyond, e.
    const std::vector<double> radii = BoundaryRadii(p, e);
    EXPECT_TRUE(BruteRadius(edge, p, radii.front()).empty()) << e.ToString();
    for (double r : radii) {
      ExpectRadiusQueriesMatchBruteForce(tree, edge, p, r);
    }
  }
}

TEST(RTreeTest, IdsWithinRadiusMatchesWithinRadiusIdSet) {
  util::Rng rng(9);
  auto entries = RandomEntries(2000, rng, 1.0);
  RTree tree = RTree::Build(entries);
  // An entry's own point (radius 0 finds it), a point inside the map and
  // one far outside it, at the sweep's radii, at 1,000 km, and at the exact
  // distance of every 50th entry and one ulp either side of it.
  for (const LatLng& p : {entries[17].point, LatLng{40.4, -99.6},
                          LatLng{-35.0, 150.0}}) {
    std::vector<double> radii(std::begin(kSweepRadiiKm),
                              std::end(kSweepRadiiKm));
    radii.push_back(1000.0);
    for (size_t k = 0; k < entries.size(); k += 50) {
      for (double r : BoundaryRadii(p, entries[k].point)) radii.push_back(r);
    }
    for (double radius : radii) {
      std::vector<int32_t> want;
      for (const auto& n : tree.WithinRadius(p, radius)) want.push_back(n.id);
      std::vector<int32_t> got = tree.IdsWithinRadius(p, radius);
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "(" << p.lat << ", " << p.lng << ") r="
                           << radius;
      EXPECT_EQ(got, BruteRadius(entries, p, radius))
          << "(" << p.lat << ", " << p.lng << ") r=" << radius;
    }
  }
  EXPECT_FALSE(tree.IdsWithinRadius(entries[17].point, 0.0).empty());
  EXPECT_FALSE(tree.IdsWithinRadius(entries[17].point, -0.0).empty());
  EXPECT_EQ(tree.IdsWithinRadius({40.4, -99.6}, 20100.0).size(),
            entries.size());
}

TEST(RTreeTest, KLargerThanSizeReturnsAll) {
  util::Rng rng(6);
  RTree tree = RTree::Build(RandomEntries(10, rng));
  EXPECT_EQ(tree.Nearest({41, -99}, 100).size(), 10u);
}

TEST(RTreeTest, DuplicatePointsAllRetrievable) {
  RTree tree;
  for (int i = 0; i < 20; ++i) tree.Insert({40.0, -100.0}, i);
  auto hits = tree.WithinRadius({40.0, -100.0}, 0.001);
  EXPECT_EQ(hits.size(), 20u);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(RTreeTest, MoveSemantics) {
  util::Rng rng(7);
  RTree tree = RTree::Build(RandomEntries(50, rng));
  RTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 50u);
  EXPECT_FALSE(moved.Nearest({41, -99}, 1).empty());
}

// Property sweep over tree sizes and fanouts: results must always agree
// with brute force.
class RTreeParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RTreeParamTest, AgreesWithBruteForce) {
  const auto [size, fanout] = GetParam();
  util::Rng rng(static_cast<uint64_t>(size * 31 + fanout));
  auto entries = RandomEntries(size, rng);
  RTree tree = RTree::Build(entries, fanout);
  EXPECT_EQ(tree.size(), static_cast<size_t>(size));
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;

  for (int q = 0; q < 10; ++q) {
    LatLng p{40.0 + rng.Uniform(0, 2.0), -100.0 + rng.Uniform(0, 2.0)};
    auto got = tree.Nearest(p, 3);
    auto expected = BruteNearest(entries, p, 3);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance_km,
                  HaversineKm(p, entries[expected[i]].point), 1e-9);
    }
    auto in_r = tree.WithinRadius(p, 20.0);
    std::vector<int32_t> ids;
    for (const auto& n : in_r) ids.push_back(n.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, BruteRadius(entries, p, 20.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFanouts, RTreeParamTest,
    ::testing::Combine(::testing::Values(1, 5, 17, 64, 257),
                       ::testing::Values(4, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pa::geo
