// In-memory span recorder for the traced mode.
//
// A span is one library call the benchmark makes (or one benchmark phase
// around several): name, start, end, the span that was open on the same
// thread when it began (its parent), and the pass or request id it belongs
// to. Span names are "<layer>.<call>", so per-layer self time is the sum
// over a layer's spans of their duration minus the part of it covered by
// their children. Nothing is recorded while tracing is off: a Span then
// costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t tag = 0;  ///< pass or request id
    int thread = 0;
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  bool enabled() const { return enabled_; }
  /// Switch before any worker thread starts; not synchronized.
  void enable(bool on) { enabled_ = on; }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  std::int64_t begin(const char* name, std::uint64_t tag);
  void end(std::int64_t id);

  /// Labels the calling thread in the written records (0 = main).
  static void set_thread(int id) { thread_id() = id; }

  std::vector<Record> records() const {
    std::lock_guard lock(mu_);
    return {records_.begin(), records_.end()};
  }
  void clear() {
    std::lock_guard lock(mu_);
    records_.clear();
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return records_.size();
  }

  /// Per-layer self time [s]: span duration minus the time its child spans
  /// cover, summed by the name prefix before the first '.'.
  std::map<std::string, double> layer_self_seconds() const;

  /// Writes one tab-separated line per span under a header line. False
  /// when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  static int& thread_id() {
    thread_local int id = 0;
    return id;
  }
  static std::vector<std::int64_t>& open_stack() {
    thread_local std::vector<std::int64_t> stack;
    return stack;
  }

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  /// Guarded by mu_. A deque grows without copying, so a long traced run
  /// holds its spans once.
  std::deque<Record> records_;
};

/// RAII span; a no-op unless tracing is on.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t tag = 0)
      : id_(Tracer::get().enabled() ? Tracer::get().begin(name, tag) : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::get().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

}  // namespace perfbench
