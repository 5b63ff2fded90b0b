#include "geo/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

namespace pa::geo {

struct RTree::Node {
  bool leaf = true;
  BoundingBox box = BoundingBox::Empty();
  std::vector<Entry> entries;                   // Populated when leaf.
  std::vector<std::unique_ptr<Node>> children;  // Populated when internal.

  int Count() const {
    return leaf ? static_cast<int>(entries.size())
                : static_cast<int>(children.size());
  }

  void RecomputeBox() {
    box = BoundingBox::Empty();
    if (leaf) {
      for (const Entry& e : entries) box.Extend(e.point);
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
    std::vector<RTree::Entry> items = std::move(node->entries);
    node->entries.clear();
    BoundingBox box_a, box_b;
    QuadraticSplit(
        items,
        [](const RTree::Entry& e) { return BoundingBox::FromPoint(e.point); },
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
std::unique_ptr<Node> InsertRec(Node* node, const RTree::Entry& entry,
                                int max_entries) {
  const BoundingBox ebox = BoundingBox::FromPoint(entry.point);
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
  std::unique_ptr<Node> split = InsertRec(root_.get(), {point, id},
                                          max_entries_);
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
      for (const Entry& e : node->entries) {
        pq.push({HaversineKm(p, e.point), nullptr, e});
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

// Calls `visit(entry, distance_km)` for every entry within `radius_km` of
// `p`, in depth-first traversal order.
template <typename Visit>
void VisitWithinRadius(const Node* root, const LatLng& p, double radius_km,
                       const Visit& visit) {
  // An empty tree's root box is inverted (min > max) and bounds nothing;
  // every other node holds at least one entry.
  if (root->Count() == 0) return;
  std::vector<const Node*> stack = {root};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->box.MinDistanceKm(p) > radius_km) continue;
    if (node->leaf) {
      for (const RTree::Entry& e : node->entries) {
        const double d = HaversineKm(p, e.point);
        if (d <= radius_km) visit(e, d);
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
  VisitWithinRadius(root_.get(), p, radius_km,
                    [&](const Entry& e, double d) {
                      result.push_back({e.id, e.point, d});
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
                    [&](const Entry& e, double) { ids.push_back(e.id); });
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
    for (const auto& e : node->entries) {
      if (!node->box.Contains(e.point)) {
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
