// Header-only, cost-source-generic implementation of the LOSS greedy
// heuristic (see loss.h for the rule). The solver is a template over the
// cost source, so the same machinery runs against a dense CostMatrix or a
// lazily priced source like LocateCostSoA that never materializes the
// O(n²) matrix.
//
// A cost source must provide:
//   int size() const;              // number of cities, city 0 = start
//   double cost(int i, int j) const;  // edge i→j; kInfiniteCost for
//                                     // self-loops and edges into city 0
// and may bound its edges from below (BoundedCosts), which turns every
// cache search into an outward neighbour search instead of a row scan.
//
// How a commit stays cheap:
//   * Committed edges always form vertex-disjoint paths, so u→v is
//     available exactly when u is a fragment tail, v is a fragment head
//     other than city 0, and v is not the head of u's own fragment
//     (FragmentEnds; no union-find).
//   * Every tail keeps an out-cache and every head other than 0 an
//     in-cache: the kTopK cheapest available edges by (cost, city).
//     Committing u→v invalidates only the out-caches naming v, the
//     in-caches naming u and the merged fragment's closing edge
//     tail→head. Each such cache drops that entry and the next one moves
//     up; a cache is searched again only when fewer than two entries
//     remain and its last search did not see every candidate.
//   * A tournament tree over the caches' (loss, edge) keys holds the next
//     commit at its root; a changed key replays one leaf-to-root path.
//
// The paths are bit-identical to the full-scan solver this replaced (kept
// as tests/reference_loss_solver.h and pinned against it): a live cache's
// top two entries are always exactly the two cheapest available edges by
// (cost, city), edges priced kInfiniteCost never enter a cache, and the
// tournament picks the scan's choice — loss highest first, then edge cost
// cheapest first, then scan position (city ascending, out-cache before
// in-cache).
#ifndef SERPENTINE_TSP_LOSS_SOLVER_H_
#define SERPENTINE_TSP_LOSS_SOLVER_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <vector>

#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp {

/// Ends of the vertex-disjoint paths ("fragments") a greedy path builder
/// has committed so far; every city starts as a fragment of its own.
/// Joining tail u to the head v of another fragment is O(1), and u→v
/// would close a cycle exactly when v is the head of u's own fragment.
class FragmentEnds {
 public:
  explicit FragmentEnds(int n) : head_of_(n), tail_of_(n) {
    std::iota(head_of_.begin(), head_of_.end(), 0);
    std::iota(tail_of_.begin(), tail_of_.end(), 0);
  }

  /// Head of the fragment that ends at `tail` (meaningful for tails only).
  int head_of(int tail) const { return head_of_[tail]; }
  /// Tail of the fragment that starts at `head` (meaningful for heads only).
  int tail_of(int head) const { return tail_of_[head]; }

  /// Commits tail u → head v of another fragment.
  void Join(int u, int v) {
    const int head = head_of_[u];
    const int tail = tail_of_[v];
    head_of_[tail] = head;
    tail_of_[head] = tail;
  }

 private:
  std::vector<int> head_of_;
  std::vector<int> tail_of_;
};

/// A cost source that bounds its edges from below (LocateCostSoA). For
/// every edge i→j that is not read-forward, with d = |in_key(j) -
/// out_key(i)|,
///   LowerBound(d) <= LowerBound(j, d) <= cost(i, j),
/// and both bounds are non-decreasing in d. Read-forward edges are those whose
/// target lies in [out_position(i), read_forward_end(i)], equivalently
/// whose source lies in [read_forward_begin(j), in_position(j)]; the
/// solver enumerates them separately. has_lower_bound() may still answer
/// false at run time, and then the solver scans every candidate.
template <typename Costs>
concept BoundedCosts = requires(const Costs& c, int i, double d) {
  { c.has_lower_bound() } -> std::convertible_to<bool>;
  { c.out_key(i) } -> std::convertible_to<double>;
  { c.in_key(i) } -> std::convertible_to<double>;
  { c.LowerBound(d) } -> std::convertible_to<double>;
  { c.LowerBound(i, d) } -> std::convertible_to<double>;
  { c.out_position(i) } -> std::convertible_to<int64_t>;
  { c.in_position(i) } -> std::convertible_to<int64_t>;
  { c.read_forward_end(i) } -> std::convertible_to<int64_t>;
  { c.read_forward_begin(i) } -> std::convertible_to<int64_t>;
};

/// The LOSS committed-edge solver over any cost source (see file comment).
template <typename Costs>
class LossSolver {
 public:
  LossSolver(const Costs& costs, LossStats* stats)
      : costs_(costs), n_(costs.size()), stats_(stats), ends_(costs.size()) {
    if constexpr (BoundedCosts<Costs>) {
      bounded_ = n_ > kMinPrunedCities && costs.has_lower_bound();
    }
  }

  std::vector<int> Solve() {
    Allocate();
    Fill();
    // Commit n-1 edges; city 0 never receives an in-edge, so the chain of
    // committed edges forms a single path rooted at 0.
    for (int committed = 0; committed < n_ - 1; ++committed) {
      const int id = tree_[1];
      SERPENTINE_CHECK_GE(loss_[id], 0.0);  // some edge is still available
      const int other = slot_city_[FirstSlot(id, 0)];
      if (IsInCache(id)) {
        Commit(other, CityOf(id));
      } else {
        Commit(CityOf(id), other);
      }
    }
    if (stats_ != nullptr) {
      stats_->iterations += n_ - 1;
      stats_->edges_priced += priced_;
    }

    std::vector<int> order;
    order.reserve(n_);
    order.push_back(0);
    for (int at = 0; next_[at] >= 0;) {
      at = next_[at];
      order.push_back(at);
    }
    SERPENTINE_CHECK_EQ(static_cast<int>(order.size()), n_);
    return order;
  }

 private:
  static constexpr int kTopK = 3;
  /// Up to this many cities one pass over all n² edges fills the caches
  /// faster than 2n pruned searches would, and a rescan is a short scan.
  static constexpr int kMinPrunedCities = 32;

  // Cache id 2c is city c's out-cache (edges c→v), 2c+1 its in-cache
  // (edges u→c); the id is also the cache's position in the tie-break.
  static int OutCache(int c) { return 2 * c; }
  static int InCache(int c) { return 2 * c + 1; }
  static int CityOf(int id) { return id >> 1; }
  static bool IsInCache(int id) { return (id & 1) != 0; }
  // Cache slots name the other endpoint; list 2v holds the out-cache slots
  // naming head v, list 2u+1 the in-cache slots naming tail u.
  static int ListOf(int slot, int city) {
    return 2 * city + ((slot / kTopK) & 1);
  }

  /// (cost, city) lexicographic order: the full scan's tie-break.
  static bool Before(double c1, int v1, double c2, int v2) {
    return c1 < c2 || (c1 == c2 && v1 < v2);
  }

  /// Inserts (c, v) into an ascending top-kTopK list of `count` entries.
  /// Edges priced kInfiniteCost (or NaN) never enter, as in the scan.
  static void Offer(double* costs, int* cities, int& count, double c, int v) {
    if (!(c < kInfiniteCost)) return;
    if (count == kTopK && !Before(c, v, costs[kTopK - 1], cities[kTopK - 1]))
      return;
    int p = count < kTopK ? count++ : kTopK - 1;
    for (; p > 0 && Before(c, v, costs[p - 1], cities[p - 1]); --p) {
      costs[p] = costs[p - 1];
      cities[p] = cities[p - 1];
    }
    costs[p] = c;
    cities[p] = v;
  }

  /// Live heads or tails sorted ascending by (key, city), kept as a doubly
  /// linked list: positions 1..m hold cities, 0 and m+1 are sentinels
  /// keyed -inf / +inf. A removed city's entry holds ~city, and its next
  /// pointer still leads rightward to a live entry.
  struct Order {
    int m = 0;
    double* key = nullptr;
    int* city = nullptr;
    int* next = nullptr;
    int* prev = nullptr;
    int* pos_of = nullptr;  ///< position of each city, 0 when absent
  };

  /// The scan's choice between caches a and b (padding ids are -1): the
  /// higher loss, then the cheaper edge, then the earlier position.
  int Pick(int a, int b) const {
    if (a < 0) return b;
    if (b < 0) return a;
    if (loss_[a] != loss_[b]) return loss_[a] > loss_[b] ? a : b;
    if (edge_[a] != edge_[b]) return edge_[a] < edge_[b] ? a : b;
    return a < b ? a : b;
  }

  bool Alive(int id) const {
    const int c = CityOf(id);
    return IsInCache(id) ? c != 0 && prev_[c] < 0 : next_[c] < 0;
  }

  double Price(int u, int v) {
    ++priced_;
    return costs_.cost(u, v);
  }
  double OutKey(int i) const {
    if constexpr (BoundedCosts<Costs>) {
      if (bounded_) return costs_.out_key(i);
    }
    return 0.0;
  }
  double InKey(int j) const {
    if constexpr (BoundedCosts<Costs>) {
      if (bounded_) return costs_.in_key(j);
    }
    return 0.0;
  }
  double OutPosition(int i) const {
    if constexpr (BoundedCosts<Costs>) {
      return static_cast<double>(costs_.out_position(i));
    }
    return 0.0;
  }
  double InPosition(int j) const {
    if constexpr (BoundedCosts<Costs>) {
      return static_cast<double>(costs_.in_position(j));
    }
    return 0.0;
  }
  /// Lower bound on every non-read-forward edge at key distance d;
  /// -inf when the source has none, so nothing is ever pruned.
  double Bound(double d) const {
    if constexpr (BoundedCosts<Costs>) {
      if (bounded_) return costs_.LowerBound(d);
    }
    return -kInfiniteCost;
  }
  /// The same for edges into `j` only.
  double Bound(int j, double d) const {
    if constexpr (BoundedCosts<Costs>) {
      if (bounded_) return costs_.LowerBound(j, d);
    }
    return -kInfiniteCost;
  }
  /// Read-forward window of cache `id`, as positions of the other end.
  void Window(int id, double* lo, double* hi) const {
    if constexpr (BoundedCosts<Costs>) {
      if (bounded_) {
        const int c = CityOf(id);
        if (IsInCache(id)) {
          *lo = static_cast<double>(costs_.read_forward_begin(c));
          *hi = InPosition(c);
        } else {
          *lo = OutPosition(c);
          *hi = static_cast<double>(costs_.read_forward_end(c));
        }
        return;
      }
    }
    *lo = 0.0;
    *hi = -1.0;  // empty
  }

  /// Sizes every per-solver buffer once, as views into two flat arenas.
  void Allocate() {
    const int n = n_;
    const int caches = 2 * n;
    const int slots = caches * kTopK;
    // The same layout runs twice: first to size the arenas, then to hand
    // out views into them.
    auto layout = [&](bool assign) {
      size_t at_int = 0;
      size_t at_double = 0;
      auto ints = [&](int** view, size_t count) {
        if (assign) *view = ints_.data() + at_int;
        at_int += count;
      };
      auto doubles = [&](double** view, size_t count) {
        if (assign) *view = doubles_.data() + at_double;
        at_double += count;
      };
      auto order = [&](Order* o, int m) {
        o->m = m;
        doubles(&o->key, m + 2);
        ints(&o->city, m + 2);
        ints(&o->next, m + 2);
        ints(&o->prev, m + 2);
        ints(&o->pos_of, n);
      };
      ints(&next_, n);
      ints(&prev_, n);
      for (int** view :
           {&count_, &exhaustive_, &dirty_, &dirty_list_, &named_}) {
        ints(view, caches);
      }
      ints(&tree_, 2 * static_cast<size_t>(leaves_));
      doubles(&loss_, caches);
      doubles(&edge_, caches);
      ints(&slot_city_, slots);
      ints(&slot_next_, slots);
      ints(&slot_prev_, slots);
      doubles(&slot_cost_, slots);
      doubles(&fill_kth_, n);
      order(&heads_by_key_, n - 1);
      order(&tails_by_key_, n);
      order(&heads_by_position_, bounded_ ? n - 1 : 0);
      order(&tails_by_position_, bounded_ ? n : 0);
      if (!assign) {
        ints_.assign(at_int, -1);
        doubles_.assign(at_double, 0.0);
      }
    };
    leaves_ = 1;
    while (leaves_ < caches) leaves_ *= 2;
    layout(false);
    layout(true);
    std::fill(count_, count_ + caches, 0);
    std::fill(dirty_, dirty_ + caches, 0);
    std::fill(loss_, loss_ + caches, -1.0);
    std::fill(edge_, edge_ + caches, kInfiniteCost);

    // Heads are cities 1..n-1 (city 0 never receives an in-edge); tails
    // are all cities.
    Build(&heads_by_key_, 1, [this](int j) { return InKey(j); });
    Build(&tails_by_key_, 0, [this](int i) { return OutKey(i); });
    if (bounded_) {
      Build(&heads_by_position_, 1, [this](int j) { return InPosition(j); });
      Build(&tails_by_position_, 0,
            [this](int i) { return OutPosition(i); });
    }
  }

  /// Fills `o` with cities first..first+m-1 sorted by (key_of, city).
  template <typename KeyOf>
  void Build(Order* o, int first, KeyOf&& key_of) {
    const int m = o->m;
    std::fill(o->pos_of, o->pos_of + n_, 0);
    for (int p = 1; p <= m; ++p) {
      o->city[p] = first + p - 1;
      o->key[p] = key_of(first + p - 1);
    }
    auto before = [&](int a, int b) {
      const double ka = key_of(a);
      const double kb = key_of(b);
      return ka < kb || (ka == kb && a < b);
    };
    if (!std::is_sorted(o->city + 1, o->city + m + 1, before)) {
      std::sort(o->city + 1, o->city + m + 1, before);
      for (int p = 1; p <= m; ++p) o->key[p] = key_of(o->city[p]);
    }
    for (int p = 0; p <= m + 1; ++p) {
      o->next[p] = p + 1;
      o->prev[p] = p - 1;
      if (p >= 1 && p <= m) o->pos_of[o->city[p]] = p;
    }
    o->key[0] = -kInfiniteCost;
    o->key[m + 1] = kInfiniteCost;
    o->city[0] = o->city[m + 1] = n_;  // sentinels are never removed
  }

  static void Remove(Order* o, int c) {
    if (o->m == 0) return;
    const int p = o->pos_of[c];
    if (p == 0) return;
    o->next[o->prev[p]] = o->next[p];
    o->prev[o->next[p]] = o->prev[p];
    o->city[p] = ~c;
  }

  /// First live position >= p; compresses the removed run it crossed.
  static int LiveFrom(Order* o, int p) {
    int q = p;
    while (o->city[q] < 0) q = o->next[q];
    while (o->city[p] < 0) {
      const int step = o->next[p];
      o->next[p] = q;
      p = step;
    }
    return q;
  }

  /// First position whose key is >= x (m+1 when none).
  static int SeekKey(const Order& o, double x) {
    return static_cast<int>(std::lower_bound(o.key + 1, o.key + o.m + 1, x) -
                            o.key);
  }

  int FirstSlot(int id, int from) const {
    for (int s = id * kTopK + from; s < (id + 1) * kTopK; ++s) {
      if (slot_city_[s] >= 0) return s;
    }
    return -1;
  }

  void Link(int s) {
    const int list = ListOf(s, slot_city_[s]);
    slot_prev_[s] = -1;
    slot_next_[s] = named_[list];
    if (named_[list] >= 0) slot_prev_[named_[list]] = s;
    named_[list] = s;
  }

  void Unlink(int s) {
    const int list = ListOf(s, slot_city_[s]);
    if (slot_prev_[s] >= 0) {
      slot_next_[slot_prev_[s]] = slot_next_[s];
    } else {
      named_[list] = slot_next_[s];
    }
    if (slot_next_[s] >= 0) slot_prev_[slot_next_[s]] = slot_prev_[s];
    slot_city_[s] = -1;
  }

  void ClearSlots(int id) {
    for (int s = id * kTopK; s < (id + 1) * kTopK; ++s) {
      if (slot_city_[s] >= 0) Unlink(s);
    }
    count_[id] = 0;
  }

  /// Fills both cache families. With a bound, each cache searches outward
  /// from its own city; without one, one pass over every edge feeds both
  /// the edge's out-cache and its in-cache.
  void Fill() {
    if (bounded_) {
      for (int id = 0; id < 2 * n_; ++id) {
        if (Alive(id)) Search(id);
      }
    } else {
      // Row u's list builds in a local buffer; column v's in its slots,
      // with its kTopK-th cost in fill_kth_ so most offers cost one
      // compare. Cities arrive in ascending order, so a tie never
      // displaces a listed entry.
      std::fill(fill_kth_, fill_kth_ + n_, kInfiniteCost);
      for (int u = 0; u < n_; ++u) {
        double costs[kTopK] = {};
        int cities[kTopK] = {};
        int found = 0;
        for (int v = 1; v < n_; ++v) {
          if (v == u) continue;
          const double c = Price(u, v);
          Offer(costs, cities, found, c, v);
          if (c < fill_kth_[v]) {
            const int in = InCache(v);
            Offer(slot_cost_ + in * kTopK, slot_city_ + in * kTopK,
                  count_[in], c, u);
            if (count_[in] == kTopK) {
              fill_kth_[v] = slot_cost_[in * kTopK + kTopK - 1];
            }
          }
        }
        const int out = OutCache(u);
        std::copy(costs, costs + found, slot_cost_ + out * kTopK);
        std::copy(cities, cities + found, slot_city_ + out * kTopK);
        count_[out] = found;
      }
      for (int id = 0; id < 2 * n_; ++id) {
        exhaustive_[id] = count_[id] < kTopK;
        for (int k = 0; k < count_[id]; ++k) Link(id * kTopK + k);
      }
    }
    for (int id = 0; id < 2 * n_; ++id) {
      if (Alive(id)) SetKey(id);
    }
    for (int i = 0; i < leaves_; ++i) {
      tree_[leaves_ + i] = i < 2 * n_ ? i : -1;
    }
    for (int p = leaves_ - 1; p >= 1; --p) {
      tree_[p] = Pick(tree_[2 * p], tree_[2 * p + 1]);
    }
  }

  /// Refills cache `id` with its kTopK cheapest available edges: first the
  /// read-forward window, then the other live endpoints outward from the
  /// cache's key until the bound exceeds the kTopK-th cost found.
  void Search(int id) {
    ClearSlots(id);
    const int c = CityOf(id);
    const bool in = IsInCache(id);
    const int own = in ? ends_.tail_of(c) : ends_.head_of(c);
    double costs[kTopK] = {};
    int cities[kTopK] = {};
    int found = 0;
    auto consider = [&](int other) {
      if (other == own) return;
      Offer(costs, cities, found, in ? Price(other, c) : Price(c, other),
            other);
    };

    double lo = 0.0;
    double hi = -1.0;
    Window(id, &lo, &hi);
    if (lo <= hi) {
      Order* near = in ? &tails_by_position_ : &heads_by_position_;
      for (int p = LiveFrom(near, SeekKey(*near, lo)); near->key[p] <= hi;
           p = near->next[p]) {
        consider(near->city[p]);
      }
    }

    Order* walk = in ? &tails_by_key_ : &heads_by_key_;
    const double origin = in ? InKey(c) : OutKey(c);
    int r = LiveFrom(walk, SeekKey(*walk, origin));
    int l = walk->prev[r];
    while (true) {
      const double dr = walk->key[r] - origin;
      const double dl = origin - walk->key[l];
      const bool right = dr <= dl;
      const double d = right ? dr : dl;
      if (d == kInfiniteCost) break;  // both ends reached
      // An in-cache's edges all end at c, so c's bound stops the walk; an
      // out-cache stops on the bound every target shares and skips the
      // targets whose own bound already rules them out.
      const double kth = found < kTopK ? kInfiniteCost : costs[kTopK - 1];
      if ((in ? Bound(c, d) : Bound(d)) > kth) break;
      const int other = walk->city[right ? r : l];
      if (right) {
        r = walk->next[r];
      } else {
        l = walk->prev[l];
      }
      if (lo <= hi) {
        const double at = in ? OutPosition(other) : InPosition(other);
        if (at >= lo && at <= hi) continue;  // read-forward: seen above
      }
      if (!in && Bound(other, d) > kth) continue;
      consider(other);
    }

    for (int k = 0; k < found; ++k) {
      const int s = id * kTopK + k;
      slot_city_[s] = cities[k];
      slot_cost_[s] = costs[k];
      Link(s);
    }
    count_[id] = found;
    exhaustive_[id] = found < kTopK;
  }

  /// Recomputes cache `id`'s (loss, edge) key from its first two slots:
  /// loss -1 when it has no edge (never chosen), +inf when one is left.
  void SetKey(int id) {
    const int first = FirstSlot(id, 0);
    if (first < 0) {
      loss_[id] = -1.0;
      edge_[id] = kInfiniteCost;
      return;
    }
    const int second = FirstSlot(id, first - id * kTopK + 1);
    const double best = slot_cost_[first];
    const double next = second < 0 ? kInfiniteCost : slot_cost_[second];
    loss_[id] = next - best;
    edge_[id] = best;
  }

  /// Re-plays the tournament along cache `id`'s path to the root.
  void Replay(int id) {
    for (int p = (leaves_ + id) / 2; p >= 1; p /= 2) {
      tree_[p] = Pick(tree_[2 * p], tree_[2 * p + 1]);
    }
  }

  void MarkDirty(int id) {
    if (dirty_[id]) return;
    dirty_[id] = 1;
    dirty_list_[dirty_count_++] = id;
  }

  /// Drops every slot on named list `list`.
  void DropNamed(int list) {
    for (int s = named_[list]; s >= 0;) {
      const int next = slot_next_[s];
      slot_city_[s] = -1;
      --count_[s / kTopK];
      MarkDirty(s / kTopK);
      s = next;
    }
    named_[list] = -1;
  }

  /// Drops `city` from cache `id` if it is listed there.
  void DropEntry(int id, int city) {
    for (int s = id * kTopK; s < (id + 1) * kTopK; ++s) {
      if (slot_city_[s] == city) {
        Unlink(s);
        --count_[id];
        MarkDirty(id);
        return;
      }
    }
  }

  void Commit(int u, int v) {
    const int head = ends_.head_of(u);
    const int tail = ends_.tail_of(v);
    next_[u] = v;
    prev_[v] = u;
    ends_.Join(u, v);

    // u stops being a tail and v a head: their own caches die, and every
    // cache naming them loses that entry.
    for (int id : {OutCache(u), InCache(v)}) {
      ClearSlots(id);
      SetKey(id);
      Replay(id);
    }
    Remove(&tails_by_key_, u);
    Remove(&tails_by_position_, u);
    Remove(&heads_by_key_, v);
    Remove(&heads_by_position_, v);
    DropNamed(2 * v);
    DropNamed(2 * u + 1);
    // The merged fragment's closing edge tail→head would make a cycle.
    if (head != 0) {
      DropEntry(OutCache(tail), head);
      DropEntry(InCache(head), tail);
    }

    for (int k = 0; k < dirty_count_; ++k) {
      const int id = dirty_list_[k];
      dirty_[id] = 0;
      if (!Alive(id)) continue;
      if (count_[id] < 2 && !exhaustive_[id]) Search(id);
      SetKey(id);
      Replay(id);
    }
    dirty_count_ = 0;
  }

  const Costs& costs_;
  const int n_;
  LossStats* stats_;
  FragmentEnds ends_;
  bool bounded_ = false;
  int64_t priced_ = 0;

  // Views into ints_ / doubles_, carved once by Allocate().
  std::vector<int> ints_;
  std::vector<double> doubles_;
  int* next_ = nullptr;  ///< committed successor, -1 while a tail
  int* prev_ = nullptr;  ///< committed predecessor, -1 while a head
  int* count_ = nullptr;       ///< live slots per cache
  int* exhaustive_ = nullptr;  ///< last search saw every candidate
  int* dirty_ = nullptr;
  double* loss_ = nullptr;  ///< per cache; -1 when it offers no edge
  double* edge_ = nullptr;  ///< per cache: its cheapest edge's cost
  int leaves_ = 0;          ///< tournament leaves: 2n rounded up to 2^k
  int* tree_ = nullptr;     ///< tree_[p]: winning cache below node p
  int* dirty_list_ = nullptr;
  int dirty_count_ = 0;
  int* named_ = nullptr;  ///< first slot of each named list, -1 when empty
  int* slot_city_ = nullptr;  ///< other endpoint, -1 when empty
  int* slot_next_ = nullptr;
  int* slot_prev_ = nullptr;
  double* slot_cost_ = nullptr;
  double* fill_kth_ = nullptr;  ///< in-cache kTopK-th cost during Fill()
  Order heads_by_key_;
  Order tails_by_key_;
  Order heads_by_position_;
  Order tails_by_position_;
};

/// Builds a LOSS Hamiltonian path over any cost source.
template <typename Costs>
std::vector<int> SolveLossPathOver(const Costs& costs,
                                   LossStats* stats = nullptr) {
  if (costs.size() == 1) return {0};
  return LossSolver<Costs>(costs, stats).Solve();
}

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_SOLVER_H_
