#include "spatial/free_space.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcr::spatial {

using geom::Coord;
using geom::Point;
using geom::Rect;

void FreeSpaceComponents::build(const Rect& boundary,
                                const std::vector<Rect>& obstacles,
                                const std::vector<char>& dead) {
  order_.clear();
  active_.clear();
  xs_.clear();
  cols_.clear();
  ivs_.clear();
  comp_.clear();
  if (boundary.empty()) return;

  // Only obstacles whose open interior meets the closed boundary block
  // anything; their x-edges strictly inside the boundary cut the columns.
  // (Reserving matters only to the first build; later ones reuse capacity.)
  order_.reserve(obstacles.size());
  xs_.reserve(2 * obstacles.size() + 2);
  xs_.push_back(boundary.xlo);
  xs_.push_back(boundary.xhi);
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    const Rect& r = obstacles[i];
    if (dead[i] != 0 || r.xlo >= r.xhi || r.ylo >= r.yhi) continue;
    if (r.xhi <= boundary.xlo || r.xlo >= boundary.xhi ||
        r.yhi <= boundary.ylo || r.ylo >= boundary.yhi) {
      continue;
    }
    order_.push_back(r);
    if (r.xlo > boundary.xlo) xs_.push_back(r.xlo);
    if (r.xhi < boundary.xhi) xs_.push_back(r.xhi);
  }
  std::sort(xs_.begin(), xs_.end());
  xs_.erase(std::unique(xs_.begin(), xs_.end()), xs_.end());
  std::sort(order_.begin(), order_.end(),
            [](const Rect& a, const Rect& b) { return a.xlo < b.xlo; });
  const std::size_t columns = 2 * xs_.size() - 1;
  active_.reserve(order_.size());
  cols_.reserve(columns);
  ivs_.reserve(2 * columns + order_.size());
  comp_.reserve(ivs_.capacity());

  // Sweep west to east.  The line x = xs_[i] is blocked by the obstacles
  // with xlo < x < xhi, the slab right of it by those with xlo <= x < xhi.
  auto next = order_.begin();
  const auto admit = [&](auto&& started) {
    const auto from = next;
    for (; next != order_.end() && started(next->xlo); ++next) {
      active_.insert(std::upper_bound(active_.begin(), active_.end(), *next,
                                      [](const Rect& a, const Rect& b) {
                                        return a.ylo < b.ylo;
                                      }),
                     *next);
    }
    return next != from;
  };
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    const Coord x = xs_[i];
    bool changed =
        std::erase_if(active_, [x](const Rect& r) { return r.xhi <= x; }) > 0;
    changed = admit([x](Coord xlo) { return xlo < x; }) || changed;
    emit_column(boundary, changed);
    if (i + 1 == xs_.size()) break;
    emit_column(boundary, admit([x](Coord xlo) { return xlo <= x; }));
  }

  // Unions always hang the larger root under the smaller, so a parent never
  // exceeds its child and one ascending pass leaves every entry at its root.
  for (std::size_t k = 0; k < comp_.size(); ++k) comp_[k] = comp_[comp_[k]];
}

void FreeSpaceComponents::emit_column(const Rect& boundary, bool changed) {
  if (!changed && !cols_.empty()) {
    cols_.push_back(cols_.back());
    return;
  }
  const auto begin = static_cast<std::uint32_t>(ivs_.size());

  // The free set is [ylo, yhi] minus the open y-spans of `active_`; `cur` is
  // the lowest y no span seen so far covers.  A span starting at or above
  // `cur` leaves [cur, its ylo] free (a single point when they are equal).
  Coord cur = boundary.ylo;
  for (const Rect& r : active_) {
    if (r.ylo >= cur) ivs_.emplace_back(cur, r.ylo);
    cur = std::max(cur, r.yhi);
    if (cur > boundary.yhi) break;
  }
  if (cur <= boundary.yhi) ivs_.emplace_back(cur, boundary.yhi);
  const auto end = static_cast<std::uint32_t>(ivs_.size());
  for (std::uint32_t k = begin; k < end; ++k) comp_.push_back(k);

  // Join the intervals that touch the previous column's (a closed overlap:
  // the shared points lie in both columns' closures and in F).  A new
  // interval is its own root until its first join.
  if (!cols_.empty()) {
    for (std::uint32_t a = cols_.back().begin, b = begin;
         a < cols_.back().end && b < end;) {
      if (ivs_[a].hi < ivs_[b].lo) {
        ++a;
      } else if (ivs_[b].hi < ivs_[a].lo) {
        ++b;
      } else {
        const std::uint32_t ra = find(a);
        if (comp_[b] == b) {
          comp_[b] = ra;
        } else if (const std::uint32_t rb = find(b); ra != rb) {
          comp_[std::max(ra, rb)] = std::min(ra, rb);
        }
        (ivs_[a].hi < ivs_[b].hi ? a : b) += 1;
      }
    }
  }
  cols_.push_back({begin, end});
}

std::uint32_t FreeSpaceComponents::find(std::uint32_t k) noexcept {
  while (comp_[k] != k) {
    comp_[k] = comp_[comp_[k]];  // path halving
    k = comp_[k];
  }
  return k;
}

FreeSpaceComponents::Label FreeSpaceComponents::label(
    const Point& p) const noexcept {
  if (xs_.empty() || p.x < xs_.front() || p.x > xs_.back()) return kNone;
  const auto at = std::lower_bound(xs_.begin(), xs_.end(), p.x);
  const std::size_t i = static_cast<std::size_t>(at - xs_.begin());
  const std::size_t col = *at == p.x ? 2 * i : 2 * i - 1;
  const auto b = ivs_.begin() + cols_[col].begin;
  const auto e = ivs_.begin() + cols_[col].end;
  const auto above = std::upper_bound(
      b, e, p.y, [](Coord y, const geom::Interval& iv) { return y < iv.lo; });
  if (above == b) return kNone;
  const auto k = static_cast<std::size_t>(above - ivs_.begin()) - 1;
  return ivs_[k].hi >= p.y ? comp_[k] : kNone;
}

bool FreeSpaceComponents::separated(
    const std::vector<Point>& a, const std::vector<Point>& b) const noexcept {
  if (a.empty() || b.empty()) return false;
  // Sources of one connection nearly always share a label, so each target
  // is looked up once per distinct run of source labels, and the common
  // connected case stops at the first match.
  Label checked = kNone;
  for (const Point& p : a) {
    const Label la = label(p);
    if (la == kNone) return false;
    if (la == checked) continue;
    for (const Point& q : b) {
      const Label lb = label(q);
      if (lb == kNone || lb == la) return false;
    }
    checked = la;
  }
  return true;
}

}  // namespace gcr::spatial
