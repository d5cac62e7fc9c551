// The command-line parser of l1hh_serve, l1hh_replica and l1hh_cli. A
// flag is `--name=value` or `--name value`, every value is non-empty, and
// numbers parse strictly (ParseU64, ParseFiniteDouble): `--shards=4x` or
// `--interval-ms=abc` is a refused command line, not a silent 4 or 0.
#ifndef L1HH_SERVE_FLAGS_H_
#define L1HH_SERVE_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "serve/socket.h"
#include "util/status.h"

namespace l1hh {
namespace serve {

class FlagSet {
 public:
  // Registers a std::string, uint64_t or double flag; names sharing a
  // target are aliases. `*seen`, when given, is set once the flag parses
  // (a port whose 0 means "ephemeral" still needs to know it was given).
  template <typename T>
  void Add(std::string name, T* out, bool* seen = nullptr) {
    flags_.push_back({std::move(name), [out, seen](std::string_view value) {
                        bool ok = true;
                        if constexpr (std::is_same_v<T, std::string>) {
                          out->assign(value);
                        } else if constexpr (std::is_same_v<T, double>) {
                          ok = ParseFiniteDouble(value, out);
                        } else {
                          ok = ParseU64(value, out);
                        }
                        if (ok && seen != nullptr) *seen = true;
                        return ok;
                      }});
  }
  // A flag whose value is optional: a bare `--name` calls set("") and
  // never takes the next argument. `set` is false for a malformed value.
  void Bare(std::string name, std::function<bool(std::string_view)> set) {
    flags_.push_back({std::move(name), std::move(set), /*bare=*/true});
  }

  // Parses argv[1..argc). Arguments not starting with "--" go to
  // `*positional`, or are refused when it is null. An unknown flag (with
  // a did-you-mean hint), a missing or empty value, or a malformed value
  // is InvalidArgument naming the flag.
  Status Parse(int argc, const char* const* argv,
               std::vector<std::string>* positional = nullptr) const;

 private:
  struct Flag {
    std::string name;
    std::function<bool(std::string_view)> set;  // false: malformed value
    bool bare = false;
  };
  std::vector<Flag> flags_;
};

}  // namespace serve
}  // namespace l1hh

#endif  // L1HH_SERVE_FLAGS_H_
