#include "augment/linear_interpolation.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace pa::augment {
namespace {

constexpr int64_t kHour = 3600;

// A straight north-south line of POIs, 0.05 degrees (~5.6 km) apart.
poi::PoiTable LinePois() {
  std::vector<geo::LatLng> coords;
  for (int i = 0; i <= 8; ++i) coords.push_back({40.0 + 0.05 * i, -100.0});
  return poi::PoiTable(std::move(coords));
}

MaskedSequence MaskedBetween(int32_t a, int32_t b, int hours) {
  poi::CheckinSequence observed = {
      {0, a, 0, false}, {0, b, hours * kHour, false}};
  return MakeMaskedSequence(observed, 3 * kHour);
}

TEST(LinearInterpolationTest, NnPicksMidlinePoi) {
  poi::PoiTable pois = LinePois();
  LinearInterpolationAugmenter nn(
      pois, LinearInterpolationAugmenter::Mode::kNearestNeighbor);
  // POI 0 at t=0 and POI 8 at t=6h: one missing slot at the middle of the
  // line, nearest to POI 4.
  MaskedSequence masked = MaskedBetween(0, 8, 6);
  ASSERT_EQ(poi::CountMissing(masked.timeline), 1);
  auto imputed = nn.Impute(masked);
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0], 4);
}

TEST(LinearInterpolationTest, TimeProportionalPlacement) {
  poi::PoiTable pois = LinePois();
  LinearInterpolationAugmenter nn(
      pois, LinearInterpolationAugmenter::Mode::kNearestNeighbor);
  // 9-hour gap -> missing slots at 1/3 and 2/3: nearest POIs ~#3 and #5.
  MaskedSequence masked = MaskedBetween(0, 8, 9);
  ASSERT_EQ(poi::CountMissing(masked.timeline), 2);
  auto imputed = nn.Impute(masked);
  EXPECT_EQ(imputed[0], 3);
  EXPECT_EQ(imputed[1], 5);
}

TEST(LinearInterpolationTest, PopPicksMostPopularNearPoint) {
  poi::PoiTable pois = LinePois();
  // Make POI 3 wildly popular; it is ~5.6 km from the midpoint (POI 4), so
  // with a large enough radius POP prefers it over the nearest.
  pois.AddPopularity(3, 100);
  pois.AddPopularity(4, 1);
  LinearInterpolationAugmenter pop(
      pois, LinearInterpolationAugmenter::Mode::kMostPopular,
      /*pop_radius_km=*/8.0);
  auto imputed = pop.Impute(MaskedBetween(0, 8, 6));
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0], 3);
}

TEST(LinearInterpolationTest, PopFallsBackToNearestWhenRadiusEmpty) {
  poi::PoiTable pois = LinePois();
  LinearInterpolationAugmenter pop(
      pois, LinearInterpolationAugmenter::Mode::kMostPopular,
      /*pop_radius_km=*/0.001);
  auto imputed = pop.Impute(MaskedBetween(0, 8, 6));
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0], 4);  // Nearest fallback.
}

TEST(LinearInterpolationTest, SameEndpointsImputeSamePoi) {
  poi::PoiTable pois = LinePois();
  LinearInterpolationAugmenter nn(
      pois, LinearInterpolationAugmenter::Mode::kNearestNeighbor);
  auto imputed = nn.Impute(MaskedBetween(2, 2, 6));
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0], 2);
}

TEST(LinearInterpolationTest, CurvedTruthDefeatsStraightLine) {
  // The paper's Fig. 2 failure mode: the user actually detours through a
  // POI far off the straight path; linear interpolation cannot pick it.
  std::vector<geo::LatLng> coords = {
      {40.00, -100.0},  // 0: start.
      {40.10, -100.0},  // 1: end (north of start).
      {40.05, -99.80},  // 2: the true detour, well east of the line.
      {40.05, -100.0},  // 3: on the line.
  };
  poi::PoiTable pois{std::move(coords)};
  LinearInterpolationAugmenter nn(
      pois, LinearInterpolationAugmenter::Mode::kNearestNeighbor);
  auto imputed = nn.Impute(MaskedBetween(0, 1, 6));
  ASSERT_EQ(imputed.size(), 1u);
  EXPECT_EQ(imputed[0], 3);  // Picks the on-line POI, not the true detour 2.
}

TEST(LinearInterpolationTest, OutOfRangePoiIsATypedError) {
  // An observed POI outside the table is reported before its coordinates
  // are read, in either bracket and in both modes.
  poi::PoiTable pois = LinePois();
  for (auto mode : {LinearInterpolationAugmenter::Mode::kNearestNeighbor,
                    LinearInterpolationAugmenter::Mode::kMostPopular}) {
    LinearInterpolationAugmenter augmenter(pois, mode);
    for (int32_t bad : {-1, 9, 10, 1000}) {
      EXPECT_THROW(augmenter.Impute(MaskedBetween(0, bad, 9)),
                   std::out_of_range)
          << augmenter.name() << " " << bad;
      EXPECT_THROW(augmenter.Impute(MaskedBetween(bad, 0, 9)),
                   std::out_of_range)
          << augmenter.name() << " " << bad;
    }
  }
}

TEST(LinearInterpolationTest, NamesDistinguishModes) {
  poi::PoiTable pois = LinePois();
  LinearInterpolationAugmenter nn(
      pois, LinearInterpolationAugmenter::Mode::kNearestNeighbor);
  LinearInterpolationAugmenter pop(
      pois, LinearInterpolationAugmenter::Mode::kMostPopular);
  EXPECT_NE(nn.name(), pop.name());
}

}  // namespace
}  // namespace pa::augment
