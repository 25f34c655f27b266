#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double nowUs() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch).count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::threadId() {
  thread_local int tid = -1;
  if (tid < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    tid = next_tid_++;
  }
  return tid;
}

void Tracer::nameThread(const std::string& name) {
  const int tid = threadId();
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = name;
}

void Tracer::record(const char* name, double start_us, double end_us) {
  if (!enabled_) return;
  const int tid = threadId();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, tid, start_us, std::max(0.0, end_us - start_us)});
}

std::vector<Tracer::Event> Tracer::withSelfTimes() const {
  std::vector<Event> ev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ev = events_;
  }
  // Per thread, outer spans first: start ascending, longer first on ties.
  std::sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> open;  // stack of enclosing spans
  for (std::size_t i = 0; i < ev.size(); ++i) {
    ev[i].self = ev[i].dur;
    while (!open.empty()) {
      const Event& top = ev[open.back()];
      if (top.tid == ev[i].tid && ev[i].ts < top.ts + top.dur) break;
      open.pop_back();
    }
    if (!open.empty()) {
      Event& parent = ev[open.back()];
      // A child sticking out past its parent only covers the overlap.
      const double end = std::min(ev[i].ts + ev[i].dur, parent.ts + parent.dur);
      parent.self -= std::max(0.0, end - ev[i].ts);
    }
    open.push_back(i);
  }
  return ev;
}

bool Tracer::writeChrome(const std::string& path) const {
  const auto ev = withSelfTimes();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tid, name] : thread_names_) {
      std::fprintf(f,
                   "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", tid, name.c_str());
      first = false;
    }
  }
  for (const auto& e : ev) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"self_us\": %.3f}}",
                 first ? "" : ",\n", e.name, e.tid, e.ts, e.dur,
                 std::max(0.0, e.self));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

}  // namespace perfbench
