#include "tracer.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimLoop: return "sim.loop";
    case Layer::kSimScan: return "sim.scan";
    case Layer::kCache: return "cache.tick";
    case Layer::kMc: return "mc.tick";
    case Layer::kSched: return "sched";
    case Layer::kCpu: return "cpu.step";
    case Layer::kCpuFill: return "cpu.fill";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t log_capacity) : origin_(memsched::util::monotonic_now()) {
  log_.reserve(log_capacity);
}

double Tracer::total_self_ns() const {
  double s = 0.0;
  for (const std::uint64_t v : self_ns_) s += static_cast<double>(v);
  return s;
}

void Tracer::write_log(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span log " + path);
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    std::fprintf(f, "{\"id\":%zu,\"parent\":%u,\"layer\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i + 1, s.parent, layer_name(s.layer),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

}  // namespace perfbench
