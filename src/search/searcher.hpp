#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "geometry/coord.hpp"
#include "search/stats.hpp"
#include "search/strategy.hpp"

/// \file searcher.hpp
/// Generic graph search over an implicit state space, following the paper's
/// presentation: an OPEN list of frontier nodes, a CLOSED list of expanded
/// nodes, parent pointers for path back-tracing, and CLOSED-to-OPEN
/// reopening with pointer re-direction when a shorter path to an
/// intermediate point is found.
///
/// The same engine runs every strategy in the paper's taxonomy; only the
/// OPEN-list ordering (and the termination rule for blind searches) differs.
/// Instantiated by the gridless router (states = plane points reached by
/// line probes), the Lee–Moore grid router (states = grid points), and the
/// fifteen-puzzle example (states = board permutations) — demonstrating the
/// paper's point that wire routing is one instance of general state-space
/// search.
///
/// A `Searcher` owns only scratch: the interned states, their nodes, an
/// open-addressing slot table over `std::hash<State>`, the OPEN heap (or
/// FIFO/stack for blind strategies) and the successor buffer.  Each `run()`
/// clears these tables without freeing them, so a warm searcher runs a
/// search without touching the heap allocator (the returned path aside).
/// The space is an argument of `run()`, not a member, so one searcher can
/// serve searches over different spaces.  Because the tables are shared
/// state, one `Searcher` must never run two searches at once; the gridless
/// router therefore keeps one `thread_local` instance, which gives every
/// daemon worker and every batch-routing thread its own warm tables without
/// a lock.
///
/// A space may also name, through the optional `dominators` hook below,
/// states whose expansion covers that of a given state; an ordered search
/// then skips the successors of a state whose dominator is already closed at
/// no greater g, without changing anything but `nodes_generated`.

namespace gcr::search {

/// A successor edge: the reached state and the non-negative edge cost.
template <class State>
struct Successor {
  State state;
  geom::Cost cost = 0;
};

/// Requirements on a problem definition.
template <class Space>
concept SearchSpace = requires(const Space& sp, const typename Space::State& s,
                               std::vector<Successor<typename Space::State>>& out) {
  typename Space::State;
  { sp.successors(s, out) } -> std::same_as<void>;
  { sp.heuristic(s) } -> std::convertible_to<geom::Cost>;
  { sp.is_goal(s) } -> std::convertible_to<bool>;
};

/// What an optional `dominators` hook returns: up to N states, held inline
/// so the hook allocates nothing.
template <class State, std::size_t N>
struct Dominators {
  std::array<State, N> states{};
  std::size_t count = 0;

  void push_back(const State& s) { states[count++] = s; }
  [[nodiscard]] const State* begin() const noexcept { return states.data(); }
  [[nodiscard]] const State* end() const noexcept {
    return states.data() + count;
  }
};

/// Optional hook: `sp.dominators(s)` lists (as a Dominators) the states that
/// *dominate* `s`.  The contract a space must keep for each listed state `d`:
///   * `d != s`, and `is_goal(d) == is_goal(s)`;
///   * for every successor `(t, c)` that `successors(s)` emits,
///     `successors(d)` emits some `(t, c')` with `c' <= c` — so expanding
///     `d` at `g(d) <= g(s)` already offered every state `s` would reach,
///     at no greater cost.
/// Ordered strategies then skip the successors of a popped state that has
/// an interned, closed dominator with `g(d) <= g(s)`.  The skip is exact:
/// none of the skipped edges would have lowered a `g`, so expansions,
/// reopenings, the OPEN high-water mark, heap order and the returned path
/// are those of the search without the hook; only `nodes_generated` falls.
/// The rule composes: a dominator whose own successors were skipped had a
/// closed dominator of its own, whose successors cover both.  Blind
/// strategies ignore the hook (a depth-cut depth-first node is closed
/// without generating anything, so "closed" would not mean "covered").
template <class Space>
concept HasDominators = requires(const Space& sp,
                                 const typename Space::State& s) {
  sp.dominators(s).begin();
  sp.dominators(s).end();
};

template <class State>
struct SearchResult {
  bool found = false;
  geom::Cost cost = geom::kCostInf;
  /// States from a start to the goal, inclusive.
  std::vector<State> path;
  SearchStats stats;
};

struct SearchOptions {
  Strategy strategy = Strategy::kAStar;
  /// Depth-first only: maximum path depth ("a depth limit is sometimes used
  /// to prevent the algorithm from going too far down the wrong path").
  /// 0 = unlimited.
  std::size_t depth_limit = 0;
  /// Abort after this many expansions (safety valve for blind strategies on
  /// large spaces).  0 = unlimited.
  std::size_t max_expansions = 0;
};

template <SearchSpace Space>
class Searcher {
 public:
  using State = typename Space::State;

  /// Slot-table size a fresh searcher starts with; it doubles whenever the
  /// interned states would fill more than half of it.
  static constexpr std::size_t kInitialSlots = 1024;

  /// Runs the search over \p space from (possibly several) start states.
  /// Multiple starts implement the multi-source tree-to-terminal searches of
  /// the Steiner construction: every point of the partially built tree is a
  /// start.
  [[nodiscard]] SearchResult<State> run(const Space& space,
                                        const std::vector<State>& starts,
                                        const SearchOptions& opts = {}) {
    reset();
    SearchResult<State> result;
    const Strategy strat = opts.strategy;
    const bool blind =
        strat == Strategy::kDepthFirst || strat == Strategy::kBreadthFirst;

    for (const State& s : starts) {
      const std::uint32_t idx = intern(s);
      nodes_[idx].g = 0;
      nodes_[idx].depth = 0;
      nodes_[idx].parent = kNoParent;
      push(space, idx, strat);
    }

    std::uint32_t best_goal = kNoParent;  // exhaustive mode tracks the best
    geom::Cost best_goal_g = geom::kCostInf;

    while (!open_empty(strat)) {
      result.stats.max_open_size =
          std::max(result.stats.max_open_size, open_size(strat));
      const std::uint32_t cur = pop(strat);
      if (cur == kNoParent) continue;  // stale heap entry
      Node& node = nodes_[cur];
      if (node.closed) continue;
      node.closed = true;

      // Termination: "the algorithm terminates when the goal node is removed
      // from OPEN to be expanded."  Exhaustive mode ignores it and drains
      // OPEN; blind modes terminate at generation time below (and here, in
      // case a start is itself a goal).
      if (space.is_goal(states_[cur])) {
        if (strat == Strategy::kExhaustive) {
          if (node.g < best_goal_g) {
            best_goal_g = node.g;
            best_goal = cur;
          }
          continue;  // goals have no successors worth pursuing
        }
        finish(result, cur);
        return result;
      }

      ++result.stats.nodes_expanded;
      if (opts.max_expansions != 0 &&
          result.stats.nodes_expanded > opts.max_expansions) {
        result.stats.aborted = true;
        break;
      }
      if (strat == Strategy::kDepthFirst && opts.depth_limit != 0 &&
          node.depth >= opts.depth_limit) {
        continue;  // depth cutoff: do not expand below the limit
      }
      if (!blind && dominated(space, cur)) continue;

      succ_.clear();
      space.successors(states_[cur], succ_);
      for (const Successor<State>& edge : succ_) {
        assert(edge.cost >= 0 && "edge weights must be non-negative");
        ++result.stats.nodes_generated;
        const std::uint32_t nxt = intern(edge.state);
        Node& child = nodes_[nxt];
        const geom::Cost g_new = nodes_[cur].g + edge.cost;

        if (blind) {
          // Blind searches keep the first path found to a state.
          if (child.g != geom::kCostInf) continue;
          child.g = g_new;
          child.parent = cur;
          child.depth = nodes_[cur].depth + 1;
          if (space.is_goal(edge.state)) {  // generation-time termination
            finish(result, nxt);
            return result;
          }
          push(space, nxt, strat);
          continue;
        }

        if (g_new < child.g) {
          // "If its new f is less than the old it must be placed back on
          // OPEN ... its pointers must be redirected in order to reflect
          // this new shorter path back to the start node."
          if (child.closed) {
            child.closed = false;
            ++result.stats.nodes_reopened;
          }
          child.g = g_new;
          child.parent = cur;
          child.depth = nodes_[cur].depth + 1;
          push(space, nxt, strat);
        }
      }
    }

    if (strat == Strategy::kExhaustive && best_goal != kNoParent) {
      finish(result, best_goal);
    }
    return result;
  }

 private:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  struct Node {
    geom::Cost g = geom::kCostInf;
    std::uint32_t parent = kNoParent;
    std::uint32_t depth = 0;
    bool closed = false;
  };

  struct HeapEntry {
    geom::Cost priority;
    std::uint64_t seq;   // FIFO tie-break for determinism
    std::uint32_t node;
    geom::Cost g_at_push;

    bool operator>(const HeapEntry& o) const noexcept {
      if (priority != o.priority) return priority > o.priority;
      return seq > o.seq;
    }
  };

  void reset() {
    states_.clear();
    nodes_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    heap_.clear();
    fifo_.clear();
    fifo_head_ = 0;
    seq_ = 0;
  }

  /// Home slot of \p s: Fibonacci hashing takes the top bits of the
  /// multiplied hash, so clustered hashes still spread over the table.
  [[nodiscard]] std::size_t home_slot(const State& s) const {
    const auto h = static_cast<std::uint64_t>(std::hash<State>{}(s));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >>
                                    slot_shift_);
  }

  /// The slot holding \p s, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(const State& s) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home_slot(s);
    while (slots_[i] != kEmptySlot && !(states_[slots_[i]] == s)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Index of \p s, assigning the next one (insertion order) when new.
  std::uint32_t intern(const State& s) {
    const std::size_t i = slot_of(s);
    if (slots_[i] != kEmptySlot) return slots_[i];
    const auto fresh = static_cast<std::uint32_t>(states_.size());
    states_.push_back(s);
    nodes_.emplace_back();
    slots_[i] = fresh;
    if (2 * states_.size() > slots_.size()) grow_slots();
    return fresh;
  }

  /// True when a closed dominator of \p cur (see HasDominators) already
  /// relaxed every edge \p cur would, at no greater g.
  [[nodiscard]] bool dominated(const Space& space, std::uint32_t cur) const {
    if constexpr (HasDominators<Space>) {
      for (const State& d : space.dominators(states_[cur])) {
        const std::uint32_t idx = slots_[slot_of(d)];  // never interning
        if (idx != kEmptySlot && nodes_[idx].closed &&
            nodes_[idx].g <= nodes_[cur].g) {
          return true;
        }
      }
    }
    return false;
  }

  /// Doubles the slot table and re-places every interned state.
  void grow_slots() {
    slots_.assign(2 * slots_.size(), kEmptySlot);
    --slot_shift_;
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t idx = 0; idx < states_.size(); ++idx) {
      std::size_t i = home_slot(states_[idx]);
      while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
      slots_[i] = idx;
    }
  }

  [[nodiscard]] static bool ordered(Strategy s) noexcept {
    return s == Strategy::kBestFirst || s == Strategy::kGreedy ||
           s == Strategy::kAStar || s == Strategy::kExhaustive;
  }

  [[nodiscard]] geom::Cost priority_of(const Space& space, std::uint32_t idx,
                                       Strategy s) const {
    switch (s) {
      case Strategy::kBestFirst:
      case Strategy::kExhaustive:
        return nodes_[idx].g;
      case Strategy::kGreedy:
        return space.heuristic(states_[idx]);
      case Strategy::kAStar:
        return nodes_[idx].g + space.heuristic(states_[idx]);
      default:
        return 0;
    }
  }

  void push(const Space& space, std::uint32_t idx, Strategy s) {
    if (ordered(s)) {
      heap_.push_back(
          HeapEntry{priority_of(space, idx, s), seq_++, idx, nodes_[idx].g});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    } else {
      fifo_.push_back(idx);
    }
  }

  [[nodiscard]] bool open_empty(Strategy s) const {
    return ordered(s) ? heap_.empty() : fifo_head_ == fifo_.size();
  }
  [[nodiscard]] std::size_t open_size(Strategy s) const {
    return ordered(s) ? heap_.size() : fifo_.size() - fifo_head_;
  }

  std::uint32_t pop(Strategy s) {
    if (ordered(s)) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      // Lazy deletion: an entry is stale if the node found a better g since
      // it was pushed (a fresher entry is in the heap).
      if (e.g_at_push != nodes_[e.node].g) return kNoParent;
      return e.node;
    }
    std::uint32_t idx;
    if (s == Strategy::kDepthFirst) {
      idx = fifo_.back();
      fifo_.pop_back();
    } else {
      idx = fifo_[fifo_head_++];  // consumed entries stay until reset()
    }
    return idx;
  }

  void finish(SearchResult<State>& result, std::uint32_t goal) const {
    result.found = true;
    result.cost = nodes_[goal].g;
    for (std::uint32_t n = goal; n != kNoParent; n = nodes_[n].parent) {
      result.path.push_back(states_[n]);
    }
    std::reverse(result.path.begin(), result.path.end());
  }

  std::vector<State> states_;
  std::vector<Node> nodes_;
  /// Open-addressing (linear probing) map from state to index in states_;
  /// kEmptySlot marks a free slot.  Power-of-two size, at most half full.
  std::vector<std::uint32_t> slots_ =
      std::vector<std::uint32_t>(kInitialSlots, kEmptySlot);
  int slot_shift_ = 64 - std::countr_zero(kInitialSlots);  // 64 - log2(size)
  std::vector<HeapEntry> heap_;  // binary min-heap on (priority, seq)
  /// Blind-strategy OPEN: depth-first pops the back, breadth-first reads
  /// from fifo_head_.
  std::vector<std::uint32_t> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Successor<State>> succ_;
  std::uint64_t seq_ = 0;
};

/// Convenience wrapper for single-start searches.
template <SearchSpace Space>
[[nodiscard]] SearchResult<typename Space::State> find_path(
    const Space& space, const typename Space::State& start,
    const SearchOptions& opts = {}) {
  Searcher<Space> searcher;
  return searcher.run(space, {start}, opts);
}

}  // namespace gcr::search
