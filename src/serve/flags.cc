#include "serve/flags.h"

#include <algorithm>

namespace l1hh {
namespace serve {
namespace {

size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

Status FlagSet::Parse(int argc, const char* const* argv,
                      std::vector<std::string>* positional) const {
  for (int i = 1; i < argc; ++i) {
    std::string_view key = argv[i];
    if (key.rfind("--", 0) != 0) {
      if (positional == nullptr) {
        return Status::InvalidArgument("unexpected argument '" +
                                       std::string(key) + "'");
      }
      positional->emplace_back(key);
      continue;
    }
    const size_t eq = key.find('=');
    const std::string_view name = key.substr(0, eq);
    const auto flag = std::find_if(
        flags_.begin(), flags_.end(),
        [name](const Flag& known) { return known.name == name; });
    if (flag == flags_.end()) {
      std::string best, known_flags;
      size_t best_distance = 3;  // suggest only near misses
      for (const Flag& known : flags_) {
        known_flags += " " + known.name;
        if (const size_t d = EditDistance(name, known.name);
            d < best_distance) {
          best_distance = d;
          best = known.name;
        }
      }
      return Status::InvalidArgument(
          "unknown flag: " + std::string(name) +
          (best.empty() ? "" : " (did you mean " + best + "?)") +
          "\nknown flags:" + known_flags);
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = key.substr(eq + 1);
      if (value.empty()) {
        return Status::InvalidArgument("flag " + std::string(name) +
                                       " needs a non-empty value");
      }
    } else if (!flag->bare) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        return Status::InvalidArgument("flag " + std::string(name) +
                                       " needs a value");
      }
      value = argv[++i];
    }
    if (!flag->set(value)) {
      return Status::InvalidArgument("flag " + std::string(name) +
                                     ": malformed value '" +
                                     std::string(value) + "'");
    }
  }
  return Status::Ok();
}

}  // namespace serve
}  // namespace l1hh
