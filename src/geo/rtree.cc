#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <queue>
#include <string>

namespace pa::geo {

namespace {

// A point's position on the unit sphere.
struct UnitVector {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

UnitVector ToUnitVector(const LatLng& p) {
  const double lat = p.lat * std::numbers::pi / 180.0;
  const double lng = p.lng * std::numbers::pi / 180.0;
  return {std::cos(lat) * std::cos(lng), std::cos(lat) * std::sin(lng),
          std::sin(lat)};
}

// A leaf entry beside its point's unit vector, computed once at insert for
// the radius walk's chord test.
struct LeafEntry {
  RTree::Entry entry;
  UnitVector unit;
};

}  // namespace

struct RTree::Node {
  bool leaf = true;
  BoundingBox box = BoundingBox::Empty();
  std::vector<LeafEntry> entries;               // Populated when leaf.
  std::vector<std::unique_ptr<Node>> children;  // Populated when internal.

  int Count() const {
    return leaf ? static_cast<int>(entries.size())
                : static_cast<int>(children.size());
  }

  void RecomputeBox() {
    box = BoundingBox::Empty();
    if (leaf) {
      for (const LeafEntry& e : entries) box.Extend(e.entry.point);
    } else {
      for (const auto& c : children) box.Extend(c->box);
    }
  }
};

namespace {

using Node = RTree::Node;

// Quadratic-split seed selection (Guttman): the pair whose combined box
// wastes the most area.
template <typename GetBox>
std::pair<int, int> PickSeeds(int n, const GetBox& box_of) {
  double worst = -std::numeric_limits<double>::infinity();
  std::pair<int, int> seeds{0, 1};
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      BoundingBox merged = box_of(i);
      merged.Extend(box_of(j));
      const double dead =
          merged.AreaDeg2() - box_of(i).AreaDeg2() - box_of(j).AreaDeg2();
      if (dead > worst) {
        worst = dead;
        seeds = {i, j};
      }
    }
  }
  return seeds;
}

// Distributes items of an overflowing node into two groups via the
// quadratic heuristic, honouring the minimum fill `min_fill`.
template <typename Item, typename GetBox>
void QuadraticSplit(std::vector<Item>& items, const GetBox& box_of_item,
                    int min_fill, std::vector<Item>* group_a,
                    std::vector<Item>* group_b, BoundingBox* box_a,
                    BoundingBox* box_b) {
  const int n = static_cast<int>(items.size());
  auto box_of = [&](int i) { return box_of_item(items[i]); };
  auto [sa, sb] = PickSeeds(n, box_of);

  std::vector<bool> assigned(n, false);
  *box_a = box_of(sa);
  *box_b = box_of(sb);
  group_a->push_back(std::move(items[sa]));
  group_b->push_back(std::move(items[sb]));
  assigned[sa] = assigned[sb] = true;
  int remaining = n - 2;

  while (remaining > 0) {
    // Forced assignment when one group must absorb the rest to reach fill.
    const int need_a = min_fill - static_cast<int>(group_a->size());
    const int need_b = min_fill - static_cast<int>(group_b->size());
    if (need_a >= remaining || need_b >= remaining) {
      std::vector<Item>* target = need_a >= remaining ? group_a : group_b;
      BoundingBox* tbox = need_a >= remaining ? box_a : box_b;
      for (int i = 0; i < n; ++i) {
        if (!assigned[i]) {
          tbox->Extend(box_of_item(items[i]));
          target->push_back(std::move(items[i]));
          assigned[i] = true;
        }
      }
      break;
    }

    // PickNext: the unassigned item with the greatest preference difference.
    int best = -1;
    double best_diff = -1.0;
    for (int i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      const double da = box_a->EnlargementDeg2(box_of_item(items[i]));
      const double db = box_b->EnlargementDeg2(box_of_item(items[i]));
      const double diff = std::fabs(da - db);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
      }
    }
    const double da = box_a->EnlargementDeg2(box_of_item(items[best]));
    const double db = box_b->EnlargementDeg2(box_of_item(items[best]));
    bool to_a = da < db;
    if (da == db) {
      to_a = box_a->AreaDeg2() < box_b->AreaDeg2() ||
             (box_a->AreaDeg2() == box_b->AreaDeg2() &&
              group_a->size() <= group_b->size());
    }
    if (to_a) {
      box_a->Extend(box_of_item(items[best]));
      group_a->push_back(std::move(items[best]));
    } else {
      box_b->Extend(box_of_item(items[best]));
      group_b->push_back(std::move(items[best]));
    }
    assigned[best] = true;
    --remaining;
  }
}

// Splits an overflowing node in place; returns the new sibling.
std::unique_ptr<Node> SplitNode(Node* node, int max_entries) {
  const int min_fill = std::max(1, max_entries / 2);
  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;

  if (node->leaf) {
    std::vector<LeafEntry> items = std::move(node->entries);
    node->entries.clear();
    BoundingBox box_a, box_b;
    QuadraticSplit(
        items,
        [](const LeafEntry& e) {
          return BoundingBox::FromPoint(e.entry.point);
        },
        min_fill, &node->entries, &sibling->entries, &box_a, &box_b);
    node->box = box_a;
    sibling->box = box_b;
  } else {
    std::vector<std::unique_ptr<Node>> items = std::move(node->children);
    node->children.clear();
    BoundingBox box_a, box_b;
    QuadraticSplit(
        items, [](const std::unique_ptr<Node>& c) { return c->box; }, min_fill,
        &node->children, &sibling->children, &box_a, &box_b);
    node->box = box_a;
    sibling->box = box_b;
  }
  return sibling;
}

// Recursive insert; returns a split sibling of `node` when it overflowed.
std::unique_ptr<Node> InsertRec(Node* node, const LeafEntry& entry,
                                int max_entries) {
  const BoundingBox ebox = BoundingBox::FromPoint(entry.entry.point);
  node->box.Extend(ebox);

  if (node->leaf) {
    node->entries.push_back(entry);
    if (node->Count() > max_entries) return SplitNode(node, max_entries);
    return nullptr;
  }

  // ChooseLeaf: least enlargement, ties by smallest area.
  Node* best = nullptr;
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& child : node->children) {
    const double enlarge = child->box.EnlargementDeg2(ebox);
    const double area = child->box.AreaDeg2();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best_enlarge = enlarge;
      best_area = area;
      best = child.get();
    }
  }

  std::unique_ptr<Node> split = InsertRec(best, entry, max_entries);
  if (split) {
    node->children.push_back(std::move(split));
    if (node->Count() > max_entries) return SplitNode(node, max_entries);
  }
  return nullptr;
}

}  // namespace

RTree::RTree(int max_entries)
    : root_(std::make_unique<Node>()),
      max_entries_(std::max(4, max_entries)) {}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

void RTree::Insert(const LatLng& point, int32_t id) {
  std::unique_ptr<Node> split = InsertRec(
      root_.get(), {{point, id}, ToUnitVector(point)}, max_entries_);
  if (split) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split));
    new_root->RecomputeBox();
    root_ = std::move(new_root);
  }
  ++size_;
}

RTree RTree::Build(const std::vector<Entry>& entries, int max_entries) {
  RTree tree(max_entries);
  for (const Entry& e : entries) tree.Insert(e.point, e.id);
  return tree;
}

std::vector<RTree::Neighbor> RTree::Nearest(const LatLng& p, int k) const {
  struct QueueItem {
    double dist;
    const Node* node;    // Non-null for subtree items.
    Entry entry;         // Valid when node == nullptr.
    bool operator>(const QueueItem& o) const { return dist > o.dist; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  if (size_ == 0 || k <= 0) return {};
  pq.push({root_->box.MinDistanceKm(p), root_.get(), {}});

  std::vector<Neighbor> result;
  while (!pq.empty() && static_cast<int>(result.size()) < k) {
    QueueItem item = pq.top();
    pq.pop();
    if (item.node == nullptr) {
      result.push_back({item.entry.id, item.entry.point, item.dist});
      continue;
    }
    const Node* node = item.node;
    if (node->leaf) {
      for (const LeafEntry& e : node->entries) {
        pq.push({HaversineKm(p, e.entry.point), nullptr, e.entry});
      }
    } else {
      for (const auto& child : node->children) {
        pq.push({child->box.MinDistanceKm(p), child.get(), {}});
      }
    }
  }
  return result;
}

namespace {

// Calls `visit(entry)` for every entry whose `HaversineKm` from `p` is at
// most `radius_km`, in depth-first traversal order.
//
// The chord test. A haversine distance d = R·θ is the central angle θ
// between unit vectors whose chord is c = 2·sin(θ/2), which grows with θ up
// to θ = π. So d <= r exactly when c² <= c_r², with c_r = 2·sin(min(r / 2R,
// π/2)). Both sides are rounded, so an entry is decided by its chord only
// outside a band c_r² ± δ, and by the test `HaversineKm(p, e) <= r` inside
// it. The band's width, with ε = 2^-53, for coordinates within ±90°
// and ±180° and an entry whose chord c is near c_r:
//  - each unit-vector component is off by at most ~10ε (degrees to radians,
//    sin, cos, product), so a component difference is off by 20ε and c² by
//    70ε·c + 1200ε², plus 3ε·c² from its own rounding;
//  - c_r² is off by a few ε·c_r²;
//  - HaversineKm is off by a few ε relative, at most twice that in c², and
//    each of its cos(lat) factors by ~3ε absolute, with a weight in c² that
//    is bounded by 2c: together about 20ε·c² + 50ε·c;
//  - below a chord of ~1e-161 its sin² terms underflow to zero.
// That totals under 4e-15·c_r² + 1.4e-14·c_r + 2e-29. δ = 1e-9·c_r² +
// 1e-12·c_r + 1e-26 covers each term over 70 times, and the band stays far
// thinner than any spacing of real POIs: at 15 km it is ±11 µm wide. A NaN
// chord (a non-finite coordinate) fails both comparisons and takes the
// haversine test too.
template <typename Visit>
void VisitWithinRadius(const Node* root, const LatLng& p, double radius_km,
                       const Visit& visit) {
  // An empty tree's root box is inverted (min > max) and bounds nothing;
  // every other node holds at least one entry. No distance is <= a
  // negative or NaN radius.
  if (root->Count() == 0 || !(radius_km >= 0.0)) return;
  const UnitVector q = ToUnitVector(p);
  const double half_angle =
      std::min(radius_km / (2.0 * kEarthRadiusKm), std::numbers::pi / 2.0);
  const double c_r = 2.0 * std::sin(half_angle);
  const double band = 1e-9 * c_r * c_r + 1e-12 * c_r + 1e-26;
  const double in_below = c_r * c_r - band;
  const double out_above = c_r * c_r + band;
  std::vector<const Node*> stack = {root};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->box.MinDistanceKm(p) > radius_km) continue;
    if (node->leaf) {
      for (const LeafEntry& e : node->entries) {
        const double dx = e.unit.x - q.x;
        const double dy = e.unit.y - q.y;
        const double dz = e.unit.z - q.z;
        const double c2 = dx * dx + dy * dy + dz * dz;
        if (c2 > out_above) continue;
        if (c2 < in_below || HaversineKm(p, e.entry.point) <= radius_km) {
          visit(e.entry);
        }
      }
    } else {
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
}

}  // namespace

std::vector<RTree::Neighbor> RTree::WithinRadius(const LatLng& p,
                                                 double radius_km) const {
  std::vector<Neighbor> result;
  VisitWithinRadius(root_.get(), p, radius_km, [&](const Entry& e) {
    result.push_back({e.id, e.point, HaversineKm(p, e.point)});
  });
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance_km < b.distance_km;
            });
  return result;
}

std::vector<int32_t> RTree::IdsWithinRadius(const LatLng& p,
                                            double radius_km) const {
  std::vector<int32_t> ids;
  VisitWithinRadius(root_.get(), p, radius_km,
                    [&](const Entry& e) { ids.push_back(e.id); });
  return ids;
}

int RTree::Height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    ++h;
    node = node->children.front().get();
  }
  return h;
}

namespace {

bool CheckNode(const Node* node, bool is_root, int max_entries, int depth,
               int* leaf_depth, std::string* why) {
  const int min_fill = std::max(1, max_entries / 2);
  const int count = node->Count();
  if (count > max_entries) {
    if (why) *why = "node exceeds max_entries";
    return false;
  }
  if (!is_root && count < min_fill) {
    if (why) *why = "non-root node under-filled";
    return false;
  }
  if (node->leaf) {
    if (*leaf_depth == -1) *leaf_depth = depth;
    if (*leaf_depth != depth) {
      if (why) *why = "leaves at different depths";
      return false;
    }
    for (const LeafEntry& e : node->entries) {
      if (!node->box.Contains(e.entry.point)) {
        if (why) *why = "leaf box does not contain entry";
        return false;
      }
    }
  } else {
    for (const auto& child : node->children) {
      BoundingBox merged = node->box;
      merged.Extend(child->box);
      // Extending must not grow the parent box: child is contained.
      if (merged.AreaDeg2() > node->box.AreaDeg2() + 1e-12) {
        if (why) *why = "child box escapes parent box";
        return false;
      }
      if (!CheckNode(child.get(), false, max_entries, depth + 1, leaf_depth,
                     why)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool RTree::CheckInvariants(std::string* why) const {
  if (size_ == 0) return true;
  int leaf_depth = -1;
  return CheckNode(root_.get(), true, max_entries_, 0, &leaf_depth, why);
}

}  // namespace pa::geo
