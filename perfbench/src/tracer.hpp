// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around calls into each
// simulator layer's public functions. Each span carries its layer, start,
// end and the index of the span that enclosed it. A layer's self time is its
// span time minus the time its child spans cover; the recorder keeps those
// sums live so the per-layer table needs no second pass. The first
// `log_capacity` spans are also kept verbatim (preallocated, no allocation on
// the recording path) and can be written out when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/wallclock.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSimLoop,   ///< one visited tick of the skip loop (root span)
  kSimScan,   ///< next-event queries: cores, hierarchy, controller
  kCache,     ///< CacheHierarchy::tick (MSHR dispatch, writeback drain)
  kMc,        ///< MemoryController::tick (DRAM legality queries inside)
  kSched,     ///< Scheduler prepare / core_priority / on_served / on_epoch
  kCpu,       ///< CoreModel::step_to (cache and trace calls inside)
  kCpuFill,   ///< fill callback hop into CoreModel::on_fill
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span; 0 = root
  Layer layer = Layer::kSimLoop;
};

class Tracer {
 public:
  explicit Tracer(std::size_t log_capacity);

  void begin(Layer layer) {
    Frame& f = stack_[depth_++];
    f.layer = layer;
    f.child_ns = 0;
    f.log_index = kNotLogged;
    f.start_ns = now_ns();
    if (log_.size() < log_.capacity()) {
      f.log_index = static_cast<std::uint32_t>(log_.size());
      log_.push_back(Span{f.start_ns, 0, depth_ > 1 ? stack_[depth_ - 2].log_index + 1 : 0,
                          layer});
    }
  }

  void end() {
    const std::uint64_t t = now_ns();
    const Frame& f = stack_[--depth_];
    const std::uint64_t dur = t - f.start_ns;
    const auto l = static_cast<std::size_t>(f.layer);
    self_ns_[l] += dur - f.child_ns;
    ++calls_[l];
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (f.log_index != kNotLogged) log_[f.log_index].end_ns = t;
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, Layer layer) : t_(t) { t_.begin(layer); }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  [[nodiscard]] double self_ns(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]);
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double total_self_ns() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return log_; }

  /// Writes the kept spans as JSON lines (one span per line).
  void write_log(const std::string& path) const;

 private:
  static constexpr std::uint32_t kNotLogged = ~std::uint32_t{0};
  static constexpr std::size_t kMaxDepth = 16;

  struct Frame {
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t log_index = kNotLogged;
    Layer layer = Layer::kSimLoop;
  };

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(memsched::util::monotonic_now() -
                                                             origin_)
            .count());
  }

  memsched::util::MonotonicTime origin_;
  std::array<Frame, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::array<std::uint64_t, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::vector<Span> log_;
};

}  // namespace perfbench
