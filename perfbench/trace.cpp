#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::begin(const char* name, std::uint64_t tag) {
  auto& stack = open_stack();
  Record r;
  r.name = name;
  r.parent = stack.empty() ? -1 : stack.back();
  r.tag = tag;
  r.thread = thread_id();
  r.start = now();
  std::int64_t id;
  {
    std::lock_guard lock(mu_);
    id = static_cast<std::int64_t>(records_.size());
    records_.push_back(r);
  }
  stack.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const double t = now();
  {
    std::lock_guard lock(mu_);
    records_[static_cast<std::size_t>(id)].end = t;
  }
  auto& stack = open_stack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  // A span's parent is the span open on the same thread when it began, so
  // children run one after another inside their parent: the part of the
  // parent they cover is the sum of their durations.
  std::lock_guard lock(mu_);
  std::vector<double> covered(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0) covered[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string name(r.name);
    self[name.substr(0, name.find('.'))] += (r.end - r.start) - covered[i];
  }
  return self;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_us\tend_us\tparent\ttag\tthread\n");
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu\t%s\t%.3f\t%.3f\t%lld\t%llu\t%d\n", i, r.name,
                 r.start * 1e6, r.end * 1e6, static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.tag), r.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
