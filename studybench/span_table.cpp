#include "span_table.h"

#include <charconv>
#include <stdexcept>
#include <vector>

namespace studybench {

namespace {

/// Cursor over one trace event object: finds `"key":` after `pos` and
/// parses the integer that follows.
std::int64_t int_field(std::string_view json, std::size_t& pos,
                       std::string_view key) {
  std::size_t at = json.find(key, pos);
  if (at == std::string_view::npos) {
    throw std::runtime_error("span trace: missing field " + std::string(key));
  }
  const char* begin = json.data() + at + key.size();
  std::int64_t value = 0;
  auto res = std::from_chars(begin, json.data() + json.size(), value);
  if (res.ec != std::errc()) {
    throw std::runtime_error("span trace: bad number after " + std::string(key));
  }
  pos = static_cast<std::size_t>(res.ptr - json.data());
  return value;
}

void add(SpanStat& stat, double total_s, double self_s) {
  ++stat.count;
  stat.total_s += total_s;
  stat.self_s += self_s;
}

struct Closed {
  std::string_view name;
  double total_s;
  double self_s;
};

}  // namespace

SpanStat SpanTable::get(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? SpanStat{} : it->second;
}

SpanStat SpanTable::under(const std::string& root, const std::string& name) const {
  auto it = by_root.find(root + "/" + name);
  return it == by_root.end() ? SpanStat{} : it->second;
}

SpanTable aggregate_chrome_trace(std::string_view json) {
  constexpr std::string_view kName = "{\"name\":\"";
  SpanTable table;
  std::int64_t tid = -1;
  // child_us[d]: summed duration of closed spans at depth d whose parent
  // has not closed yet. pending: spans since the thread's last root closed.
  std::vector<std::int64_t> child_us;
  std::vector<Closed> pending;
  std::size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string_view::npos) {
    pos += kName.size();
    std::size_t end = json.find('"', pos);
    if (end == std::string_view::npos) {
      throw std::runtime_error("span trace: unterminated name");
    }
    std::string_view name = json.substr(pos, end - pos);
    pos = end;
    int_field(json, pos, "\"ts\":");
    std::int64_t dur_us = int_field(json, pos, "\"dur\":");
    std::int64_t span_tid = int_field(json, pos, "\"tid\":");
    std::int64_t depth = int_field(json, pos, "\"depth\":");
    if (depth < 0 || dur_us < 0) {
      throw std::runtime_error("span trace: negative depth or duration");
    }
    if (span_tid != tid) {
      tid = span_tid;
      child_us.clear();
      pending.clear();
    }
    auto d = static_cast<std::size_t>(depth);
    if (child_us.size() < d + 2) child_us.resize(d + 2, 0);
    std::int64_t self_us = dur_us - child_us[d + 1];
    child_us[d + 1] = 0;
    child_us[d] += dur_us;
    double total_s = static_cast<double>(dur_us) * 1e-6;
    double self_s = static_cast<double>(self_us > 0 ? self_us : 0) * 1e-6;
    add(table.by_name[std::string(name)], total_s, self_s);
    ++table.spans;
    if (d == 0) {
      for (const Closed& c : pending) {
        std::string key(name);
        key += '/';
        key += c.name;
        add(table.by_root[key], c.total_s, c.self_s);
      }
      pending.clear();
    } else {
      pending.push_back({name, total_s, self_s});
    }
  }
  return table;
}

}  // namespace studybench
