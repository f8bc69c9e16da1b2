#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <string>
#include <vector>

#include "lint.hpp"

namespace memsched::lint {

namespace {

// ---------------------------------------------------------------------------
// Token-stream helpers. All passes operate on the "significant" view: code
// tokens only, comments and preprocessor directives stripped.

using Sig = std::vector<const Token*>;

[[nodiscard]] Sig significant(const std::vector<Token>& toks) {
  Sig s;
  s.reserve(toks.size());
  for (const Token& t : toks) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kPp) s.push_back(&t);
  }
  return s;
}

[[nodiscard]] bool is_ident(const Sig& s, std::size_t i, const char* text) {
  return i < s.size() && s[i]->kind == TokKind::kIdent && s[i]->text == text;
}

[[nodiscard]] bool is_punct(const Sig& s, std::size_t i, const char* text) {
  return i < s.size() && s[i]->kind == TokKind::kPunct && s[i]->text == text;
}

/// Index of the bracket matching s[open] ('(' / '{' / '['), or s.size().
[[nodiscard]] std::size_t match_bracket(const Sig& s, std::size_t open) {
  const std::string& o = s[open]->text;
  const char* close = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kPunct) continue;
    if (s[i]->text == o) ++depth;
    if (s[i]->text == close && --depth == 0) return i;
  }
  return s.size();
}

/// Index just past the '>' matching s[open] == '<', treating ">>" as two
/// closers, or s.size() when this is not a template argument list after all
/// (statement terminator reached first).
[[nodiscard]] std::size_t match_angle(const Sig& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kPunct) continue;
    const std::string& t = s[i]->text;
    if (t == "<") ++depth;
    if (t == "(" || t == "[") {
      i = match_bracket(s, i);
      if (i == s.size()) return s.size();
      continue;
    }
    if (t == ">" && --depth == 0) return i;
    if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    }
    if (t == ";" || t == "{") return s.size();
  }
  return s.size();
}

[[nodiscard]] bool starts_with(const std::string& str, const char* prefix) {
  return str.rfind(prefix, 0) == 0;
}

[[nodiscard]] bool ends_with(const std::string& str, char c) {
  return !str.empty() && str.back() == c;
}

void add_unique(std::vector<std::string>& v, const std::string& x) {
  if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
}

[[nodiscard]] bool contains(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// ---------------------------------------------------------------------------
// Check vocabulary.

const char kDetUnorderedIter[] = "det-unordered-iter";
const char kDetPointerKey[] = "det-pointer-key";
const char kDetBannedCall[] = "det-banned-call";
const char kCkptSymmetry[] = "ckpt-symmetry";
const char kContractMain[] = "contract-guarded-main";
const char kContractAssert[] = "contract-raw-assert";
const char kContractConfigKey[] = "contract-config-key";
const char kPerfHotPath[] = "perf-hot-path";

const std::vector<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
const std::vector<std::string> kBannedClocks = {"steady_clock", "system_clock",
                                                "high_resolution_clock"};
// Bare (or std::-qualified) calls banned outside the blessed wrappers: all
// of them read ambient wall-clock or global-RNG state.
const std::vector<std::string> kBannedCalls = {
    "rand", "srand", "time", "clock", "gettimeofday", "clock_gettime", "localtime",
    "gmtime"};
const std::vector<std::string> kBlessedFiles = {
    "src/util/rng.hpp", "src/util/rng.cpp", "src/util/wallclock.hpp"};
const std::vector<std::string> kConfigGetters = {"get_string", "get_int",    "get_uint",
                                                 "get_u32",    "get_double", "get_bool",
                                                 "has"};
const std::vector<std::string> kBeginNames = {"begin", "cbegin", "rbegin", "crbegin"};

struct Scope {
  bool in_src = false;
  bool in_tools = false;
  bool in_bench = false;
  bool in_examples = false;
  bool blessed_clock_file = false;
};

[[nodiscard]] Scope scope_for(const std::string& rel) {
  Scope sc;
  sc.in_src = starts_with(rel, "src/");
  sc.in_tools = starts_with(rel, "tools/");
  sc.in_bench = starts_with(rel, "bench/");
  sc.in_examples = starts_with(rel, "examples/");
  sc.blessed_clock_file = contains(kBlessedFiles, rel);
  return sc;
}

// ---------------------------------------------------------------------------
// Declaration harvesting (runs over the whole include closure).

/// After a closing '>' of an unordered/alias type, skip cv/ref/ptr tokens
/// and return the declared name index, or npos when this is not a simple
/// declaration (e.g. a function return type or a nested template argument).
[[nodiscard]] std::size_t decl_name_after_type(const Sig& s, std::size_t after_type) {
  std::size_t i = after_type;
  while (i < s.size() &&
         (is_punct(s, i, "&") || is_punct(s, i, "*") || is_ident(s, i, "const"))) {
    ++i;
  }
  if (i >= s.size() || s[i]->kind != TokKind::kIdent) return s.size();
  // A following '(' means a function declaration, not a variable — except
  // brace/paren initializers, which we accept via '{' '=' ';' ',' only.
  if (i + 1 < s.size() && s[i + 1]->kind == TokKind::kPunct) {
    const std::string& nxt = s[i + 1]->text;
    if (nxt != ";" && nxt != "=" && nxt != "{" && nxt != "," && nxt != ")" && nxt != "}") {
      return s.size();
    }
  }
  return i;
}

void collect_unordered_vars(const Sig& s, Decls& d) {
  std::vector<std::string> aliases;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent || !contains(kUnorderedTypes, s[i]->text)) continue;
    if (!is_punct(s, i + 1, "<")) continue;
    const std::size_t close = match_angle(s, i + 1);
    if (close == s.size()) continue;
    // `using Name = [std::]unordered_map<...>` — record the alias.
    std::size_t j = i;
    if (j >= 2 && is_punct(s, j - 1, "::") && is_ident(s, j - 2, "std")) j -= 2;
    if (j >= 3 && is_punct(s, j - 1, "=") && is_ident(s, j - 3, "using")) {
      aliases.push_back(s[j - 2]->text);
      continue;
    }
    const std::size_t name = decl_name_after_type(s, close + 1);
    if (name != s.size()) add_unique(d.unordered_vars, s[name]->text);
  }
  // Second pass: declarations through an alias (`Table t;`).
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent || !contains(aliases, s[i]->text)) continue;
    const std::size_t name = decl_name_after_type(s, i + 1);
    if (name != s.size()) add_unique(d.unordered_vars, s[name]->text);
  }
}

/// Like collect_unordered_vars but for the whole node-based associative
/// family. Ordered types are only recognized std::-qualified — `map`/`set`
/// alone are too common as plain identifiers.
void collect_assoc_vars(const Sig& s, Decls& d) {
  std::vector<std::string> aliases;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent) continue;
    const std::string& n = s[i]->text;
    const bool ordered =
        (n == "map" || n == "set" || n == "multimap" || n == "multiset") && i >= 2 &&
        is_punct(s, i - 1, "::") && is_ident(s, i - 2, "std");
    if (!ordered && !contains(kUnorderedTypes, n)) continue;
    if (!is_punct(s, i + 1, "<")) continue;
    const std::size_t close = match_angle(s, i + 1);
    if (close == s.size()) continue;
    std::size_t j = i;
    if (j >= 2 && is_punct(s, j - 1, "::") && is_ident(s, j - 2, "std")) j -= 2;
    if (j >= 3 && is_punct(s, j - 1, "=") && is_ident(s, j - 3, "using")) {
      aliases.push_back(s[j - 2]->text);
      continue;
    }
    const std::size_t name = decl_name_after_type(s, close + 1);
    if (name != s.size()) add_unique(d.assoc_vars, s[name]->text);
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent || !contains(aliases, s[i]->text)) continue;
    const std::size_t name = decl_name_after_type(s, i + 1);
    if (name != s.size()) add_unique(d.assoc_vars, s[name]->text);
  }
}

void collect_clock_aliases(const Sig& s, Decls& d) {
  for (std::size_t i = 0; i + 2 < s.size(); ++i) {
    if (!is_ident(s, i, "using") || s[i + 1]->kind != TokKind::kIdent ||
        !is_punct(s, i + 2, "=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < s.size() && !is_punct(s, j, ";"); ++j) {
      if (s[j]->kind == TokKind::kIdent &&
          (contains(kBannedClocks, s[j]->text) || contains(d.clock_aliases, s[j]->text))) {
        add_unique(d.clock_aliases, s[i + 1]->text);
        break;
      }
    }
  }
}

void collect_config_keys(const Sig& s, Decls& d) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (is_ident(s, i, "check_known")) {
      // Only a method *call* activates the check for the TU — the mere
      // declaration in util/config.hpp reaches every include closure.
      if (i > 0 && (is_punct(s, i - 1, ".") || is_punct(s, i - 1, "->"))) {
        d.uses_check_known = true;
      }
      if (is_punct(s, i + 1, "(")) {
        const std::size_t close = match_bracket(s, i + 1);
        for (std::size_t j = i + 2; j < close && j < s.size(); ++j) {
          if (s[j]->kind == TokKind::kString) add_unique(d.config_keys, s[j]->text);
        }
      }
      continue;
    }
    // A braced initializer list passed as a call argument registers its
    // literals — the `BenchSetup::parse(argc, argv, {"out", ...})`
    // extra-keys idiom.
    if (is_punct(s, i, "{") && i > 0 &&
        (is_punct(s, i - 1, "(") || is_punct(s, i - 1, ","))) {
      const std::size_t close = match_bracket(s, i);
      for (std::size_t k = i + 1; k < close && k < s.size(); ++k) {
        if (is_punct(s, k, "{") || is_punct(s, k, "(") || is_punct(s, k, "[")) {
          k = match_bracket(s, k);
          continue;
        }
        if (s[k]->kind == TokKind::kString) add_unique(d.config_keys, s[k]->text);
      }
      continue;
    }
    // Any string_view container initializer registers its literals; key
    // lists are built exactly this way (kConfigKeys, BenchSetup's `known`).
    if (is_ident(s, i, "string_view")) {
      for (std::size_t j = i + 1; j < s.size(); ++j) {
        if (is_punct(s, j, ";") || is_punct(s, j, "(")) break;
        if (is_punct(s, j, "{")) {
          const std::size_t close = match_bracket(s, j);
          for (std::size_t k = j + 1; k < close && k < s.size(); ++k) {
            if (s[k]->kind == TokKind::kString) add_unique(d.config_keys, s[k]->text);
          }
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// det-unordered-iter

void check_unordered_iter(const std::string& rel, const Sig& s, const Decls& d,
                          std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Range-for whose range expression mentions an unordered container.
    if (is_ident(s, i, "for") && is_punct(s, i + 1, "(")) {
      const std::size_t close = match_bracket(s, i + 1);
      std::size_t colon = s.size();
      for (std::size_t j = i + 2; j < close; ++j) {
        if (is_punct(s, j, "(") || is_punct(s, j, "[") || is_punct(s, j, "{")) {
          j = match_bracket(s, j);
          if (j == s.size()) break;
          continue;
        }
        if (is_punct(s, j, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == s.size()) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (s[j]->kind == TokKind::kIdent && contains(d.unordered_vars, s[j]->text)) {
          out.push_back({kDetUnorderedIter, rel, s[i]->line, s[i]->col,
                         "range-for over unordered container '" + s[j]->text +
                             "' — iteration order is hash-dependent; iterate a "
                             "sorted copy or switch to an ordered container"});
          break;
        }
      }
      continue;
    }
    // Explicit iterator walk: v.begin() / v->begin() and friends.
    if (s[i]->kind == TokKind::kIdent && contains(d.unordered_vars, s[i]->text) &&
        (is_punct(s, i + 1, ".") || is_punct(s, i + 1, "->")) && i + 2 < s.size() &&
        s[i + 2]->kind == TokKind::kIdent && contains(kBeginNames, s[i + 2]->text) &&
        is_punct(s, i + 3, "(")) {
      out.push_back({kDetUnorderedIter, rel, s[i]->line, s[i]->col,
                     "'" + s[i]->text + "." + s[i + 2]->text +
                         "()' walks an unordered container — element order is "
                         "hash-dependent; pick the element deterministically "
                         "(e.g. min key) or keep an ordered mirror"});
    }
  }
}

// ---------------------------------------------------------------------------
// det-pointer-key

void check_pointer_key(const std::string& rel, const Sig& s,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 2; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent) continue;
    const std::string& n = s[i]->text;
    if (n != "map" && n != "set" && n != "multimap" && n != "multiset") continue;
    if (!is_punct(s, i - 1, "::") || !is_ident(s, i - 2, "std")) continue;
    if (!is_punct(s, i + 1, "<")) continue;
    const std::size_t close = match_angle(s, i + 1);
    if (close == s.size()) continue;
    // First template argument: up to the first top-level ',' (or the end for
    // single-argument sets).
    int depth = 0;
    std::size_t arg_end = close;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (is_punct(s, j, "<")) ++depth;
      if (is_punct(s, j, ">")) --depth;
      if (is_punct(s, j, "(") || is_punct(s, j, "[")) j = match_bracket(s, j);
      if (depth == 0 && is_punct(s, j, ",")) {
        arg_end = j;
        break;
      }
    }
    if (arg_end > i + 2 && is_punct(s, arg_end - 1, "*")) {
      out.push_back({kDetPointerKey, rel, s[i]->line, s[i]->col,
                     "std::" + n + " keyed on a pointer — ordering follows "
                         "allocation addresses, which differ run to run; key on "
                         "a stable id instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// det-banned-call

void check_banned_call(const std::string& rel, const Sig& s, const Decls& d,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent) continue;
    const std::string& n = s[i]->text;
    if (n == "random_device") {
      out.push_back({kDetBannedCall, rel, s[i]->line, s[i]->col,
                     "std::random_device is nondeterministic by design; draw "
                     "from a seeded util::Xoshiro256 (src/util/rng.hpp)"});
      continue;
    }
    if ((contains(kBannedClocks, n) || contains(d.clock_aliases, n)) &&
        is_punct(s, i + 1, "::") && is_ident(s, i + 2, "now")) {
      out.push_back({kDetBannedCall, rel, s[i]->line, s[i]->col,
                     "raw std::chrono clock read ('" + n +
                         "::now') — go through util::monotonic_now() "
                         "(src/util/wallclock.hpp) so wall-clock access stays "
                         "auditable and out of simulated state"});
      continue;
    }
    if (contains(kBannedCalls, n) && is_punct(s, i + 1, "(")) {
      const bool member = i > 0 && (is_punct(s, i - 1, ".") || is_punct(s, i - 1, "->"));
      const bool qualified = i > 0 && is_punct(s, i - 1, "::");
      const bool std_qualified = qualified && i > 1 && is_ident(s, i - 2, "std");
      // `long time() const` declares a function of that name; a call site is
      // always preceded by an operator/keyword ('=', '(', ',', 'return', ...)
      // rather than a type identifier.
      const bool declared = i > 0 && s[i - 1]->kind == TokKind::kIdent &&
                            s[i - 1]->text != "return";
      if (member || declared || (qualified && !std_qualified)) continue;
      out.push_back({kDetBannedCall, rel, s[i]->line, s[i]->col,
                     "'" + n + "()' reads global clock/RNG state — use the seeded "
                         "RNG (src/util/rng.hpp) or the wall-clock wrapper "
                         "(src/util/wallclock.hpp)"});
    }
  }
}

// ---------------------------------------------------------------------------
// ckpt-symmetry
//
// A writer and its reader must serialize the same put_*/get_* field sequence,
// or every stored byte decodes as garbage. Two kinds of pair: save_state /
// load_state by owning class (component snapshots), and free functions
// encode_<kind> / decode_<kind> by the <kind> suffix (result-cache entries,
// WAL records).

struct SerEvent {
  std::string kind;    ///< scalar suffix ("u64", "bool", ...), "nested", or
                       ///< "section <name>"
  int line = 0;
};

struct SerFunc {
  std::string owner;  ///< pairing key: the class, or "encode_/decode_<kind>"
  std::string name;   ///< save_state, load_state, encode_<kind>, decode_<kind>
  bool is_save = false;
  int line = 0;
  std::vector<SerEvent> events;
  std::vector<std::string> members;  ///< identifiers ending in '_'
};

/// Maps each class-body '{' (by index in `s`) to the class name.
[[nodiscard]] std::map<std::size_t, std::string> class_braces(const Sig& s) {
  std::map<std::size_t, std::string> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!is_ident(s, i, "class") && !is_ident(s, i, "struct")) continue;
    if (i > 0 && is_ident(s, i - 1, "enum")) continue;
    std::string name;
    bool in_bases = false;
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      const Token& t = *s[j];
      if (t.kind == TokKind::kIdent) {
        if (!in_bases && t.text != "final" && t.text != "alignas") name = t.text;
        continue;
      }
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "<") {
        j = match_angle(s, j);
        if (j == s.size()) break;
        continue;
      }
      if (t.text == "(" || t.text == "[") {
        j = match_bracket(s, j);
        if (j == s.size()) break;
        continue;
      }
      if (t.text == ":") {
        in_bases = true;
        continue;
      }
      if (t.text == "{") {
        if (!name.empty()) out[j] = name;
        break;
      }
      // ';' = forward declaration; ',' '>' ')' = template parameter or a
      // `class` in some other grammatical position.
      break;
    }
  }
  return out;
}

void extract_events(const Sig& s, std::size_t body_open, std::size_t body_close,
                    SerFunc& f) {
  for (std::size_t i = body_open + 1; i < body_close; ++i) {
    if (s[i]->kind == TokKind::kIdent && ends_with(s[i]->text, '_') &&
        s[i]->text.size() > 1) {
      add_unique(f.members, s[i]->text);
    }
    if (s[i]->kind != TokKind::kIdent || !is_punct(s, i + 1, "(")) continue;
    const std::string& n = s[i]->text;
    if (starts_with(n, "put_") || starts_with(n, "get_")) {
      f.events.push_back({n.substr(4), s[i]->line});
    } else if (n == "save_state" || n == "load_state") {
      f.events.push_back({"nested", s[i]->line});
    } else if (n == "begin_section" || n == "open_section") {
      const std::size_t close = match_bracket(s, i + 1);
      std::string section = "?";
      for (std::size_t j = i + 2; j < close; ++j) {
        if (s[j]->kind == TokKind::kString) {
          section = s[j]->text;
          break;
        }
      }
      f.events.push_back({"section " + section, s[i]->line});
    }
  }
}

void check_ckpt_symmetry(const std::string& rel, const Sig& s,
                         std::vector<Diagnostic>& out) {
  const std::map<std::size_t, std::string> cls = class_braces(s);
  std::vector<std::pair<std::size_t, std::string>> class_stack;  // (close idx, name)
  std::vector<SerFunc> funcs;

  for (std::size_t i = 0; i < s.size(); ++i) {
    while (!class_stack.empty() && i > class_stack.back().first) class_stack.pop_back();
    if (is_punct(s, i, "{")) {
      const auto it = cls.find(i);
      if (it != cls.end()) class_stack.emplace_back(match_bracket(s, i), it->second);
      continue;
    }
    if (s[i]->kind != TokKind::kIdent || !is_punct(s, i + 1, "(")) continue;
    const std::string& n = s[i]->text;
    const bool state = n == "save_state" || n == "load_state";
    const bool codec = n.size() > 7 && (starts_with(n, "encode_") || starts_with(n, "decode_"));
    if (!state && !codec) continue;
    const std::size_t close = match_bracket(s, i + 1);
    if (close == s.size()) continue;
    std::size_t k = close + 1;
    while (k < s.size() && (is_ident(s, k, "const") || is_ident(s, k, "override") ||
                            is_ident(s, k, "final") || is_ident(s, k, "noexcept"))) {
      ++k;
      if (is_punct(s, k, "(")) k = match_bracket(s, k) + 1;  // noexcept(...)
    }
    if (!is_punct(s, k, "{")) continue;  // declaration or a call, not a definition
    SerFunc f;
    f.name = n;
    f.is_save = n == "save_state" || starts_with(n, "encode_");
    f.line = s[i]->line;
    if (codec) {
      f.owner = "encode_/decode_" + n.substr(7);
    } else if (i >= 2 && is_punct(s, i - 1, "::") && s[i - 2]->kind == TokKind::kIdent) {
      f.owner = s[i - 2]->text;
    } else if (!class_stack.empty()) {
      f.owner = class_stack.back().second;
    }
    const std::size_t body_close = match_bracket(s, k);
    extract_events(s, k, body_close, f);
    funcs.push_back(std::move(f));
    i = k;  // the body is scanned by extract_events; keep brace tracking alive
  }

  // Pair save/load per owner (first definition of each kind wins).
  std::vector<std::string> owners;
  for (const SerFunc& f : funcs) {
    if (!f.owner.empty()) add_unique(owners, f.owner);
  }
  for (const std::string& owner : owners) {
    const SerFunc* save = nullptr;
    const SerFunc* load = nullptr;
    for (const SerFunc& f : funcs) {
      if (f.owner != owner) continue;
      (f.is_save ? save : load) = &f;
    }
    if (save == nullptr || load == nullptr) continue;
    const std::size_t n = std::min(save->events.size(), load->events.size());
    bool mismatch = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (save->events[i].kind == load->events[i].kind) continue;
      std::ostringstream msg;
      msg << owner << ": serialized field sequence diverges at step " << i + 1 << " — "
          << save->name << " writes '" << save->events[i].kind << "' (line "
          << save->events[i].line << ") but " << load->name << " reads '"
          << load->events[i].kind << "'";
      out.push_back({kCkptSymmetry, rel, load->events[i].line, 1, msg.str()});
      mismatch = true;
      break;
    }
    if (!mismatch && save->events.size() != load->events.size()) {
      std::ostringstream msg;
      msg << owner << ": " << save->name << " serializes " << save->events.size()
          << " field(s) (line " << save->line << ") but " << load->name << " reads "
          << load->events.size();
      out.push_back({kCkptSymmetry, rel, load->line, 1, msg.str()});
      mismatch = true;
    }
    if (mismatch) continue;
    for (const std::string& m : save->members) {
      if (!contains(load->members, m)) {
        out.push_back({kCkptSymmetry, rel, load->line, 1,
                       owner + ": field '" + m + "' is written by " + save->name +
                           " but never mentioned by " + load->name +
                           " — restored state would silently drop it"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// contract-guarded-main

void check_guarded_main(const std::string& rel, const Sig& s,
                        std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!is_ident(s, i, "main") || !is_punct(s, i + 1, "(")) continue;
    if (i == 0 || !is_ident(s, i - 1, "int")) continue;
    const std::size_t close = match_bracket(s, i + 1);
    if (close == s.size() || !is_punct(s, close + 1, "{")) continue;
    const std::size_t body_close = match_bracket(s, close + 1);
    bool guarded = false;
    for (std::size_t j = close + 2; j < body_close; ++j) {
      if (is_ident(s, j, "guarded_main")) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      out.push_back({kContractMain, rel, s[i]->line, s[i]->col,
                     "main() must return via harness::guarded_main so uncaught "
                     "errors map onto the exit-code contract "
                     "(src/harness/exit_codes.hpp) and emit the MEMSCHED_ERROR "
                     "record"});
    }
  }
}

// ---------------------------------------------------------------------------
// contract-raw-assert

void check_raw_assert(const std::string& rel, const Sig& s,
                      std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!is_ident(s, i, "assert") || !is_punct(s, i + 1, "(")) continue;
    out.push_back({kContractAssert, rel, s[i]->line, s[i]->col,
                   "raw assert() is compiled out under NDEBUG and prints no "
                   "operands — use MEMSCHED_ASSERT/MEMSCHED_ASSERTF "
                   "(src/util/assert.hpp)"});
  }
}

// ---------------------------------------------------------------------------
// contract-config-key

void check_config_key(const std::string& rel, const Sig& s, const Decls& d,
                      std::vector<Diagnostic>& out) {
  if (!d.uses_check_known) return;
  for (std::size_t i = 2; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent || !contains(kConfigGetters, s[i]->text)) continue;
    if (!is_punct(s, i - 1, ".") && !is_punct(s, i - 1, "->")) continue;
    if (!is_punct(s, i + 1, "(") || i + 2 >= s.size() ||
        s[i + 2]->kind != TokKind::kString) {
      continue;
    }
    const std::string& key = s[i + 2]->text;
    bool known = false;
    for (const std::string& reg : d.config_keys) {
      if (key == reg || (starts_with(key, reg.c_str()) && !reg.empty())) {
        known = true;
        break;
      }
    }
    if (!known) {
      out.push_back({kContractConfigKey, rel, s[i + 2]->line, s[i + 2]->col,
                     "config key \"" + key +
                         "\" is read but never registered with "
                         "Config::check_known — an unregistered key can never "
                         "be set without tripping the unknown-key gate"});
    }
  }
}

// ---------------------------------------------------------------------------
// perf-hot-path
//
// The controller tick path is the simulator's innermost loop; the SoA queue
// refactor moved it onto flat arrays with an arena/freelist precisely so it
// performs no node-based container walks and no per-tick heap allocation
// (docs/performance.md). This check keeps it that way. Hot functions are
// identified by the tick naming convention (tick / *_tick / tick_*) in
// src/mc/ — helpers outside that convention are covered transitively by the
// throughput gate, not by this lint.

const std::vector<std::string> kAllocCalls = {"malloc", "calloc", "realloc",
                                              "make_unique", "make_shared"};

[[nodiscard]] bool hot_path_name(const std::string& n) {
  return n == "tick" || starts_with(n, "tick_") ||
         (n.size() > 5 && n.rfind("_tick") == n.size() - 5);
}

void scan_hot_body(const std::string& rel, const std::string& fn, const Sig& s,
                   std::size_t open, std::size_t close, const Decls& d,
                   std::vector<Diagnostic>& out) {
  for (std::size_t i = open + 1; i < close; ++i) {
    if (s[i]->kind != TokKind::kIdent) continue;
    const std::string& n = s[i]->text;
    if (n == "new" && !(i > 0 && is_ident(s, i - 1, "operator"))) {
      out.push_back({kPerfHotPath, rel, s[i]->line, s[i]->col,
                     "'new' inside '" + fn +
                         "' — per-tick heap allocation on the controller hot "
                         "path; draw from the request arena/freelist instead"});
      continue;
    }
    if (contains(kAllocCalls, n) &&
        (is_punct(s, i + 1, "(") || is_punct(s, i + 1, "<"))) {
      out.push_back({kPerfHotPath, rel, s[i]->line, s[i]->col,
                     "'" + n + "' inside '" + fn +
                         "' allocates on the controller hot path — "
                         "preallocate outside the tick loop"});
      continue;
    }
    // Range-for whose range expression mentions an associative container.
    if (n == "for" && is_punct(s, i + 1, "(")) {
      const std::size_t head_close = match_bracket(s, i + 1);
      std::size_t colon = s.size();
      for (std::size_t j = i + 2; j < head_close; ++j) {
        if (is_punct(s, j, "(") || is_punct(s, j, "[") || is_punct(s, j, "{")) {
          j = match_bracket(s, j);
          if (j == s.size()) break;
          continue;
        }
        if (is_punct(s, j, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == s.size()) continue;
      for (std::size_t j = colon + 1; j < head_close; ++j) {
        if (s[j]->kind == TokKind::kIdent && contains(d.assoc_vars, s[j]->text)) {
          out.push_back({kPerfHotPath, rel, s[i]->line, s[i]->col,
                         "range-for over '" + s[j]->text + "' inside '" + fn +
                             "' — node-based container walk on the controller "
                             "hot path; use the flat SoA arrays or a per-bank "
                             "index instead"});
          break;
        }
      }
      continue;
    }
    // Explicit iterator walk: m.begin() and friends.
    if (contains(d.assoc_vars, n) &&
        (is_punct(s, i + 1, ".") || is_punct(s, i + 1, "->")) && i + 2 < s.size() &&
        s[i + 2]->kind == TokKind::kIdent && contains(kBeginNames, s[i + 2]->text) &&
        is_punct(s, i + 3, "(")) {
      out.push_back({kPerfHotPath, rel, s[i]->line, s[i]->col,
                     "'" + n + "." + s[i + 2]->text + "()' inside '" + fn +
                         "' walks a node-based container on the controller hot "
                         "path; use the flat SoA arrays or a per-bank index "
                         "instead"});
    }
  }
}

void check_perf_hot_path(const std::string& rel, const Sig& s, const Decls& d,
                         std::vector<Diagnostic>& out) {
  if (!starts_with(rel, "src/mc/")) return;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i]->kind != TokKind::kIdent || !hot_path_name(s[i]->text)) continue;
    // A call site (obj.tick(...)), not a definition.
    if (i > 0 && (is_punct(s, i - 1, ".") || is_punct(s, i - 1, "->"))) continue;
    if (!is_punct(s, i + 1, "(")) continue;
    const std::size_t params_close = match_bracket(s, i + 1);
    if (params_close == s.size()) continue;
    // Definition = parameter list followed (through const/override/final/
    // noexcept(...)) directly by '{'. Anything else is a declaration or call.
    std::size_t k = params_close + 1;
    while (k < s.size() && s[k]->kind == TokKind::kIdent) {
      ++k;
      if (is_punct(s, k, "(")) k = match_bracket(s, k) + 1;  // noexcept(...)
    }
    if (!is_punct(s, k, "{")) continue;
    const std::size_t body_close = match_bracket(s, k);
    scan_hot_body(rel, s[i]->text, s, k, body_close, d, out);
    i = body_close;
  }
}

// ---------------------------------------------------------------------------
// Inline suppressions.

/// Lines carrying "memsched-lint: allow(a, b)" comments -> suppressed checks.
[[nodiscard]] std::map<int, std::set<std::string>> suppressions(
    const std::vector<Token>& toks) {
  std::map<int, std::set<std::string>> out;
  for (const Token& t : toks) {
    if (t.kind != TokKind::kComment) continue;
    const std::size_t tag = t.text.find("memsched-lint:");
    if (tag == std::string::npos) continue;
    const std::size_t allow = t.text.find("allow", tag);
    if (allow == std::string::npos) continue;
    const std::size_t open = t.text.find('(', allow);
    const std::size_t close = t.text.find(')', allow);
    if (open == std::string::npos || close == std::string::npos || close < open) continue;
    std::set<std::string>& checks = out[t.line];
    std::string cur;
    for (std::size_t i = open + 1; i <= close; ++i) {
      const char c = t.text[i];
      if (c == ',' || c == ')') {
        if (!cur.empty()) checks.insert(cur);
        cur.clear();
      } else if (c != ' ' && c != '\t') {
        cur.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& all_checks() {
  static const std::vector<std::string> kAll = {
      kCkptSymmetry,  kContractConfigKey, kContractMain,     kContractAssert,
      kDetBannedCall, kDetPointerKey,     kDetUnorderedIter, kPerfHotPath};
  return kAll;
}

void Decls::merge(const Decls& other) {
  for (const std::string& v : other.unordered_vars) add_unique(unordered_vars, v);
  for (const std::string& v : other.assoc_vars) add_unique(assoc_vars, v);
  for (const std::string& v : other.clock_aliases) add_unique(clock_aliases, v);
  for (const std::string& v : other.config_keys) add_unique(config_keys, v);
  uses_check_known = uses_check_known || other.uses_check_known;
}

Decls collect_decls(const std::vector<Token>& toks) {
  const Sig s = significant(toks);
  Decls d;
  collect_unordered_vars(s, d);
  collect_assoc_vars(s, d);
  collect_clock_aliases(s, d);
  collect_config_keys(s, d);
  return d;
}

std::vector<Diagnostic> run_checks(const std::string& rel_path,
                                   const std::vector<Token>& toks, const Decls& decls,
                                   const std::vector<std::string>& checks) {
  for (const std::string& c : checks) {
    if (!contains(all_checks(), c)) {
      throw std::invalid_argument("unknown check '" + c + "' (see list=1)");
    }
  }
  const Scope sc = scope_for(rel_path);
  const Sig s = significant(toks);
  const auto on = [&checks](const char* name) { return contains(checks, name); };

  std::vector<Diagnostic> out;
  const bool code_scope = sc.in_src || sc.in_tools || sc.in_bench || sc.in_examples;
  if (code_scope && on(kDetUnorderedIter)) check_unordered_iter(rel_path, s, decls, out);
  if (code_scope && on(kDetPointerKey)) check_pointer_key(rel_path, s, out);
  if (code_scope && !sc.blessed_clock_file && on(kDetBannedCall)) {
    check_banned_call(rel_path, s, decls, out);
  }
  if (code_scope && on(kCkptSymmetry)) check_ckpt_symmetry(rel_path, s, out);
  if ((sc.in_tools || sc.in_bench || sc.in_examples) && on(kContractMain)) {
    check_guarded_main(rel_path, s, out);
  }
  if ((sc.in_src || sc.in_tools) && on(kContractAssert)) check_raw_assert(rel_path, s, out);
  if (code_scope && on(kContractConfigKey)) check_config_key(rel_path, s, decls, out);
  if (sc.in_src && on(kPerfHotPath)) check_perf_hot_path(rel_path, s, decls, out);

  // Inline allow() suppressions: same line or the line directly above.
  const std::map<int, std::set<std::string>> allow = suppressions(toks);
  std::vector<Diagnostic> kept;
  for (Diagnostic& diag : out) {
    bool suppressed = false;
    for (const int line : {diag.line, diag.line - 1}) {
      const auto it = allow.find(line);
      if (it != allow.end() &&
          (it->second.count(diag.check) != 0 || it->second.count("*") != 0)) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(diag));
  }
  std::sort(kept.begin(), kept.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.line, a.col, a.check) < std::tie(b.line, b.col, b.check);
  });
  return kept;
}

}  // namespace memsched::lint
