// Per-name aggregation of obs::SpanProfiler spans: count, total and self
// time, read back from the profiler's Chrome trace-event export (the only
// public view of every thread's buffer).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace studybench {

struct SpanStat {
  std::uint64_t count = 0;
  double total_s = 0.0;
  /// Duration minus the time covered by direct child spans on the same
  /// thread (clamped at 0 against microsecond rounding).
  double self_s = 0.0;
};

struct SpanTable {
  std::map<std::string, SpanStat> by_name;
  /// The same statistics keyed "<root>/<name>", where <root> is the
  /// outermost (depth-0) span the span closed under on its thread. Spans on
  /// a thread whose root never closed are left out.
  std::map<std::string, SpanStat> by_root;
  std::uint64_t spans = 0;

  /// Zero-valued when `name` never appeared.
  [[nodiscard]] SpanStat get(const std::string& name) const;
  [[nodiscard]] SpanStat under(const std::string& root,
                               const std::string& name) const;
};

/// Aggregate the output of SpanProfiler::write_chrome_trace. Spans appear
/// thread by thread in close order, so a parent follows its children.
/// Throws std::runtime_error on text that is not in that shape.
[[nodiscard]] SpanTable aggregate_chrome_trace(std::string_view json);

}  // namespace studybench
