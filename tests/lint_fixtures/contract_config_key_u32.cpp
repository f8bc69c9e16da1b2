// lint-as: tools/fixture/contract_config_key_u32.cpp
// Fixture: contract-config-key covers keys read through get_u32 like those
// of every other typed getter: a registered key passes, an unregistered one
// fires.
#include <initializer_list>

namespace fixture {

struct Config {
  void check_known(std::initializer_list<const char*> keys) const {}
  unsigned get_u32(const char* key, unsigned def) const { return def; }
};

inline unsigned run(const Config& cfg) {
  cfg.check_known({"jobs"});
  unsigned n = cfg.get_u32("jobs", 1);
  n += cfg.get_u32("retries", 5);  // expect-lint: contract-config-key
  return n;
}

}  // namespace fixture
