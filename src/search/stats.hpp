#pragma once

#include <cstddef>
#include <ostream>

/// \file stats.hpp
/// Machine-independent instrumentation of a search run.  The paper's
/// efficiency argument ("surprisingly few nodes are generated before an
/// optimal path is found") is about node counts, so every search records
/// them; wall-clock numbers live in the benchmarks.

namespace gcr::search {

struct SearchStats {
  /// Nodes removed from OPEN and expanded (successor generation performed).
  std::size_t nodes_expanded = 0;
  /// Successor nodes generated (including duplicates later discarded),
  /// counted after the space's and the searcher's exact pruning: a ray the
  /// space does not cast, or the successors of a node skipped because a
  /// closed dominator covers them (search::HasDominators), never count.
  std::size_t nodes_generated = 0;
  /// Nodes moved back from CLOSED to OPEN because a shorter path was found —
  /// the paper's re-pointing case.
  std::size_t nodes_reopened = 0;
  /// High-water mark of the OPEN list (memory proxy): open nodes, each
  /// queued once (a blind search also counts a duplicate start twice).
  std::size_t max_open_size = 0;
  /// True when the run hit the expansion cap before exhausting OPEN.
  bool aborted = false;
  /// Connections proved unreachable without a search (no goal lies in the
  /// free-space component of any source), so they expanded nothing.
  std::size_t proved_unreachable = 0;

  SearchStats& operator+=(const SearchStats& o) {
    nodes_expanded += o.nodes_expanded;
    nodes_generated += o.nodes_generated;
    nodes_reopened += o.nodes_reopened;
    if (o.max_open_size > max_open_size) max_open_size = o.max_open_size;
    aborted = aborted || o.aborted;
    proved_unreachable += o.proved_unreachable;
    return *this;
  }
};

inline std::ostream& operator<<(std::ostream& os, const SearchStats& s) {
  return os << "expanded=" << s.nodes_expanded
            << " generated=" << s.nodes_generated
            << " reopened=" << s.nodes_reopened
            << " max_open=" << s.max_open_size
            << " unreachable=" << s.proved_unreachable
            << (s.aborted ? " (aborted)" : "");
}

}  // namespace gcr::search
