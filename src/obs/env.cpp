#include "obs/env.hpp"

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ftsched::obs {

namespace {

struct EnvInfo {
  std::string cpu_model;   ///< /proc/cpuinfo "model name" (first core)
  std::uint32_t cores = 0; ///< online hardware threads
  std::string compiler;    ///< __VERSION__ of the compiler that built obs/
  std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at configure time
  std::string governor;    ///< cpu0 cpufreq governor, "unknown" if unreadable
};

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

void write_env_json(std::ostream& os, const EnvInfo& env) {
  os << "{\"cpu\":\"" << json_escape(env.cpu_model)
     << "\",\"cores\":" << env.cores << ",\"compiler\":\""
     << json_escape(env.compiler) << "\",\"build\":\""
     << json_escape(env.build_type) << "\",\"governor\":\""
     << json_escape(env.governor) << "\"}";
}

/// Cached after the first call: the answer cannot change within one
/// process.
const EnvInfo& collect_env() {
  static const EnvInfo env = collect_env_uncached();
  return env;
}

}  // namespace

bool write_artifact(const std::string& path, std::string_view bench,
                    const std::function<void(std::ostream&)>& head,
                    const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"bench\":\"" << json_escape(bench) << '"';
  head(os);
  os << ",\"env\":";
  write_env_json(os, collect_env());
  if (body) body(os);
  os << "}\n";
  return true;
}

}  // namespace ftsched::obs
