#pragma once
/// \file trace.hpp
/// \brief Benchmark-side span tracer: complete spans kept in memory and
/// written out as Chrome trace-event JSON when the run ends.
///
/// Spans are recorded only from the benchmark's own files, around calls into
/// the library's public functions (Simulation::step and its progress
/// reporter, the surrogate backend's predictBatch, the scenario service's
/// control calls). A span's self time is its duration minus the part of it
/// that its children on the same thread cover; it is written into the
/// span's `args`.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic microseconds since the tracer's epoch (process start).
double nowUs();

class Tracer {
 public:
  static Tracer& instance();

  /// Tracing is off unless enabled; every record call is then a no-op.
  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Label the calling thread in the exported trace.
  void nameThread(const std::string& name);

  /// Record a complete span [start_us, end_us) on the calling thread.
  void record(const char* name, double start_us, double end_us);

  /// Write every recorded span as {"traceEvents": [...]} JSON.
  bool writeChrome(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  /// Small stable id of the calling thread (0 = first thread seen).
  int threadId();

  struct Event {
    const char* name;
    int tid;
    double ts, dur;
    double self = 0.0;
  };
  /// Events with self times filled in (children nest by containment).
  [[nodiscard]] std::vector<Event> withSelfTimes() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<int, std::string> thread_names_;
  int next_tid_ = 0;
};

/// RAII span on the calling thread; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), start_(Tracer::instance().enabled() ? nowUs() : -1.0) {}
  ~Span() {
    if (start_ >= 0.0) Tracer::instance().record(name_, start_, nowUs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_;
};

}  // namespace perfbench
