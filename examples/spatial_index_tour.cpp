// Tour of the spatial substrate: the R-tree (Guttman, quadratic split — the
// access method the paper cites for its interpolation baselines),
// great-circle interpolation, and the slot grid that turns a sparse
// check-in sequence into the evenly-spaced timeline of the paper's Fig. 1.

#include <cstdio>

#include "geo/latlng.h"
#include "geo/rtree.h"
#include "poi/slot_grid.h"
#include "util/rng.h"

int main() {
  using namespace pa;

  // --- R-tree over a random POI field -----------------------------------
  util::Rng rng(9);
  geo::RTree rtree;
  for (int i = 0; i < 20000; ++i) {
    rtree.Insert({30.0 + rng.Uniform(0, 3.0), -98.0 + rng.Uniform(0, 3.0)},
                 i);
  }
  std::printf("R-tree: %zu points, height %d\n", rtree.size(),
              rtree.Height());

  const geo::LatLng austin{30.2672, -97.7431};
  auto nearest = rtree.Nearest(austin, 5);
  std::printf("5 nearest POIs to Austin:\n");
  for (const auto& n : nearest) {
    std::printf("  poi %6d at %s  (%.3f km)\n", n.id,
                n.point.ToString().c_str(), n.distance_km);
  }
  auto in_radius = rtree.WithinRadius(austin, 10.0);
  std::printf("POIs within 10 km: %zu\n", in_radius.size());

  // --- Great-circle interpolation (the LI baselines' straight path) -----
  const geo::LatLng dallas{32.7767, -96.7970};
  std::printf("\nAustin -> Dallas is %.1f km; straight-path waypoints:\n",
              geo::HaversineKm(austin, dallas));
  for (double f : {0.25, 0.5, 0.75}) {
    const geo::LatLng p = geo::InterpolateGreatCircle(austin, dallas, f);
    std::printf("  f=%.2f -> %s (nearest indexed poi %d)\n", f,
                p.ToString().c_str(), rtree.Nearest(p, 1)[0].id);
  }

  // --- Slot grid: paper Fig. 1 ------------------------------------------
  constexpr int64_t kHour = 3600;
  poi::CheckinSequence seq = {{0, 11, 8 * kHour, false},
                              {0, 22, 10 * kHour, false},
                              {0, 33, 19 * kHour, false}};
  auto timeline = poi::BuildSlotTimeline(seq, 3 * kHour);
  std::printf(
      "\nFig. 1 slot grid (check-ins at 8am, 10am, 7pm; 3h interval):\n");
  for (const poi::Slot& slot : timeline) {
    std::printf("  %2lldh  %s\n",
                static_cast<long long>(slot.timestamp / kHour),
                slot.missing() ? "MISSING -> to impute" : "observed");
  }
  return 0;
}
