// Checked-in expectations for the benchmark's outputs: digests of exact
// results and exact-engine references for the sampled cases, both keyed by
// case and seed slot.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// FNV-1a-64 of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest_of(const std::string& bytes);

/// "<workload>/<case>#<slot>".
[[nodiscard]] std::string expectation_key(const std::string& workload,
                                          const std::string& case_name, std::uint32_t slot);

/// A JSON object file of key -> value, with a free-form "provenance" block.
class ExpectationFile {
 public:
  /// A missing file loads as empty; a malformed one throws.
  static ExpectationFile load(const std::string& path);

  [[nodiscard]] const memsched::util::Json* find(const std::string& key) const;
  void set(const std::string& key, memsched::util::Json value);
  void set_provenance(memsched::util::Json provenance) { provenance_ = std::move(provenance); }
  void save(const std::string& path) const;

 private:
  memsched::util::Json provenance_ = memsched::util::Json::object();
  std::map<std::string, memsched::util::Json> entries_;
};

/// The digest table of exact results: check() compares in run mode; in
/// regen mode it records every digest that changed and save() rewrites the
/// file and names those cases.
class Digests {
 public:
  Digests(std::string path, bool regen);

  /// True when `bytes` hashes to the checked-in digest for `key` (always
  /// true in regen mode).
  bool check(const std::string& key, const std::string& bytes);
  void save();

 private:
  std::string path_;
  bool regen_;
  ExpectationFile file_;
  std::vector<std::string> changed_;
};

}  // namespace perfbench
