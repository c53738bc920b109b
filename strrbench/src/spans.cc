#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace strrbench {

void SpanRecorder::Append(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::ChromeTraceJson() const {
  std::vector<Span> spans = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"strrbench\",\"ph\":\"X\","
                  "\"ts\":%lld,\"dur\":%lld,\"pid\":%llu,\"tid\":%u,"
                  "\"args\":{\"depth\":%u,\"arg\":%llu}}",
                  i == 0 ? "" : ",", s.name == nullptr ? "?" : s.name,
                  static_cast<long long>(s.start_us),
                  static_cast<long long>(s.dur_us),
                  static_cast<unsigned long long>(s.query_id), s.tid,
                  static_cast<unsigned>(s.depth),
                  static_cast<unsigned long long>(s.arg));
    out.append(line);
  }
  out.append("\n]}\n");
  return out;
}

std::vector<SelfTimeRow> SpanRecorder::SelfTimes() const {
  std::vector<Span> spans = Snapshot();
  // Group by query; inside a query, a span's direct children are the
  // depth+1 spans that start inside its interval.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.query_id != b.query_id) {
                       return a.query_id < b.query_id;
                     }
                     return a.start_us < b.start_us;
                   });
  std::vector<SelfTimeRow> rows;
  std::map<std::string, size_t> row_of;
  size_t begin = 0;
  while (begin < spans.size()) {
    size_t end = begin;
    while (end < spans.size() && spans[end].query_id == spans[begin].query_id) {
      ++end;
    }
    for (size_t i = begin; i < end; ++i) {
      const Span& parent = spans[i];
      int64_t children_us = 0;
      for (size_t j = begin; j < end; ++j) {
        const Span& c = spans[j];
        if (c.depth == parent.depth + 1 && c.start_us >= parent.start_us &&
            c.start_us <= parent.start_us + parent.dur_us) {
          children_us += c.dur_us;
        }
      }
      std::string name = parent.name == nullptr ? "?" : parent.name;
      auto [it, inserted] = row_of.emplace(name, rows.size());
      if (inserted) rows.push_back(SelfTimeRow{name, 0, 0.0, 0.0});
      SelfTimeRow& row = rows[it->second];
      ++row.count;
      row.total_ms += parent.dur_us / 1000.0;
      row.self_ms += std::max<int64_t>(0, parent.dur_us - children_us) / 1000.0;
    }
    begin = end;
  }
  return rows;
}

std::string SpanRecorder::SelfTimeTable() const {
  std::vector<SelfTimeRow> rows = SelfTimes();
  double root_ms = 0.0;
  for (const SelfTimeRow& row : rows) {
    if (row.name == "query") root_ms += row.total_ms;
  }
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-22s %10s %12s %12s %14s %8s\n", "span",
                "count", "total_ms", "self_ms", "self_us/call", "self%");
  out.append(line);
  for (const SelfTimeRow& row : rows) {
    std::snprintf(line, sizeof(line),
                  "%-22s %10llu %12.3f %12.3f %14.2f %7.2f%%\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ms, row.self_ms,
                  row.count == 0 ? 0.0 : row.self_ms * 1000.0 / row.count,
                  root_ms <= 0.0 ? 0.0 : 100.0 * row.self_ms / root_ms);
    out.append(line);
  }
  return out;
}

}  // namespace strrbench
