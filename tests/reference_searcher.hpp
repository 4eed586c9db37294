#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "geometry/coord.hpp"
#include "search/searcher.hpp"
#include "search/stats.hpp"
#include "search/strategy.hpp"

/// \file reference_searcher.hpp
/// Differential oracle for search::Searcher's OPEN heap: the searcher as it
/// was before the heap became indexed.  Every push appends a heap entry; a
/// g-improvement pushes a second entry for the same node and leaves the
/// first one stale, to be skipped when it pops (lazy deletion).  Equal
/// priorities are ordered by \p Tie, so the same oracle runs both
///   * `LargerGTie`, the production rule: an indexed heap that re-keys
///     entries in place must expand, generate, reopen and return exactly
///     what this lazy-deletion heap does; only `max_open_size` (which here
///     counts stale entries) may differ; and
///   * `FifoTie`, the historical rule (equal priorities in push order): a
///     different tie rule changes which equal-cost path is found, never
///     whether one is found or, for admissible strategies, its cost.

namespace gcr::test {

/// The historical tie rule: equal priorities pop in push order.  Returns
/// true when the entry (g_a, seq_a) pops after (g_b, seq_b).
struct FifoTie {
  [[nodiscard]] bool operator()(geom::Cost /*g_a*/, std::uint64_t seq_a,
                                geom::Cost /*g_b*/,
                                std::uint64_t seq_b) const noexcept {
    return seq_a > seq_b;
  }
};

/// search::Searcher's rule: the larger g first, then push order.
struct LargerGTie {
  [[nodiscard]] bool operator()(geom::Cost g_a, std::uint64_t seq_a,
                                geom::Cost g_b,
                                std::uint64_t seq_b) const noexcept {
    if (g_a != g_b) return g_a < g_b;
    return seq_a > seq_b;
  }
};

template <search::SearchSpace Space, class Tie>
class ReferenceSearcher {
 public:
  using State = typename Space::State;
  using Strategy = search::Strategy;
  using SearchOptions = search::SearchOptions;
  template <class S>
  using SearchResult = search::SearchResult<S>;
  template <class S>
  using Successor = search::Successor<S>;

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
    std::uint64_t seq;   // push order
    std::uint32_t node;
    geom::Cost g_at_push;

    bool operator>(const HeapEntry& o) const noexcept {
      if (priority != o.priority) return priority > o.priority;
      return Tie{}(g_at_push, seq, o.g_at_push, o.seq);
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
    if constexpr (search::HasDominators<Space>) {
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
  std::vector<HeapEntry> heap_;  // binary min-heap on (priority, Tie)
  /// Blind-strategy OPEN: depth-first pops the back, breadth-first reads
  /// from fifo_head_.
  std::vector<std::uint32_t> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Successor<State>> succ_;
  std::uint64_t seq_ = 0;
};

/// Empty when \p got made the same search decisions as \p want (the
/// lazy-deletion heap under the same tie rule): same outcome, path and
/// expansion, generation, reopening and abort counts.  Otherwise names the
/// first field that differs.  `max_open_size` is not compared: the lazy
/// heap counts its stale entries.
template <class State>
[[nodiscard]] std::string order_mismatch(
    const search::SearchResult<State>& got,
    const search::SearchResult<State>& want) {
  if (got.found != want.found) return "found";
  if (got.cost != want.cost) return "cost";
  if (got.path != want.path) return "path";
  if (got.stats.nodes_expanded != want.stats.nodes_expanded) {
    return "nodes_expanded";
  }
  if (got.stats.nodes_generated != want.stats.nodes_generated) {
    return "nodes_generated";
  }
  if (got.stats.nodes_reopened != want.stats.nodes_reopened) {
    return "nodes_reopened";
  }
  if (got.stats.aborted != want.stats.aborted) return "aborted";
  return {};
}

/// Empty when \p got (one tie rule) and \p want (another) agree on what a
/// tie rule cannot change: whether a goal is reached and, for an admissible
/// \p strategy, at what cost.  A run that hit its expansion cap explored a
/// rule-dependent part of the space, so it is not compared.
template <class State>
[[nodiscard]] std::string tie_rule_mismatch(
    const search::SearchResult<State>& got,
    const search::SearchResult<State>& want, search::Strategy strategy) {
  if (got.stats.aborted || want.stats.aborted) return {};
  if (got.found != want.found) return "found";
  if (got.found && search::admissible(strategy) && got.cost != want.cost) {
    return "cost";
  }
  return {};
}

}  // namespace gcr::test
