// Overlapped I/O time computation — Step 3 of the BPS methodology (Figure 3).
//
// T in the BPS equation is the measure of the union of all I/O access
// intervals: concurrent overlapping accesses count once, idle gaps count
// zero ("T should only include the time when I/O operation is performing").
//
// Three implementations are provided:
//  * overlap_time_merged()     — sort, then the interval-union kernel
//                                (interval_union.hpp) that every ordered T
//                                computation in bpsio runs on; merge_intervals()
//                                also returns the merged interval list.
//  * overlap_time_paper()      — the paper's Figure-3 algorithm, transcribed
//                                as literally as possible (sort by start, then
//                                a step-by-step record comparison that merges
//                                the next record into the current one).
//  * overlap_time_bruteforce() — O(n²) reference used by property tests.
//
// All implementations agree on every input (tested exhaustively); the paper
// version is kept because reproducing the published algorithm verbatim is
// part of the point, and the ablation bench compares their cost.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "trace/trace_collector.hpp"

namespace bpsio::metrics {

using trace::TimeInterval;

/// The paper's Figure-3 algorithm. Input order does not matter (the
/// algorithm sorts internally, as Figure 3 does). Empty input -> 0.
SimDuration overlap_time_paper(std::vector<TimeInterval> col_time);

/// Sort-and-merge union measure (the interval-union kernel).
SimDuration overlap_time_merged(std::vector<TimeInterval> col_time);

/// Sort-and-merge that also returns the disjoint union intervals, sorted.
/// Useful for visualizing busy/idle phases (see examples/trace_tools).
std::vector<TimeInterval> merge_intervals(std::vector<TimeInterval> col_time);

/// O(n²) reference: for each interval, measure the part not covered by any
/// earlier interval, via pairwise subtraction. Slow; tests only.
SimDuration overlap_time_bruteforce(const std::vector<TimeInterval>& col_time);

/// Union measure restricted to a window [w_start, w_end).
SimDuration overlap_time_windowed(const std::vector<TimeInterval>& col_time,
                                  std::int64_t window_start_ns,
                                  std::int64_t window_end_ns);

/// Idle time inside the span of the collection: span length minus union.
SimDuration idle_time(const std::vector<TimeInterval>& col_time);

/// Maximum number of simultaneously-active intervals (peak I/O concurrency).
std::size_t peak_concurrency(const std::vector<TimeInterval>& col_time);

/// Average concurrency over busy time: sum(lengths) / union. 0 if union is 0.
double average_concurrency(const std::vector<TimeInterval>& col_time);

}  // namespace bpsio::metrics
