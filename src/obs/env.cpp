#include "obs/env.hpp"

#include <fstream>
#include <ostream>
#include <string>

#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ftsched::obs {

namespace {

std::string first_line_matching(const char* path, std::string_view key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    return line.substr(begin);
  }
  return "unknown";
}

std::string read_trimmed(const char* path) {
  std::ifstream in(path);
  std::string value;
  if (!(in >> value)) return "unknown";
  return value;
}

EnvInfo collect_env_uncached() {
  EnvInfo env;
  env.cpu_model = first_line_matching("/proc/cpuinfo", "model name");
#if defined(__unix__) || defined(__APPLE__)
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (cores > 0) env.cores = static_cast<std::uint32_t>(cores);
#endif
#if defined(__VERSION__)
  env.compiler = __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(FTSCHED_BUILD_TYPE)
  env.build_type = FTSCHED_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
  env.governor =
      read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  return env;
}

}  // namespace

const EnvInfo& collect_env() {
  static const EnvInfo env = collect_env_uncached();
  return env;
}

void write_env_json(std::ostream& os, const EnvInfo& env) {
  os << "{\"cpu\":\"" << json_escape(env.cpu_model)
     << "\",\"cores\":" << env.cores << ",\"compiler\":\""
     << json_escape(env.compiler) << "\",\"build\":\""
     << json_escape(env.build_type) << "\",\"governor\":\""
     << json_escape(env.governor) << "\"}";
}

}  // namespace ftsched::obs
