// Environment stamp of a result, and the refusal of builds whose numbers
// would not describe the shipped program.
#include <fstream>
#include <thread>

#include "mathx/simd.hpp"
#include "perfbench.hpp"

namespace perfbench {

std::string build_refusal() {
  // The runner and the server are compiled in one CMake project with the
  // same flags, so the runner's own build describes the server's.
#if !defined(__OPTIMIZE__)
  return "unoptimized build (" PERFBENCH_BUILD_TYPE "): numbers would not "
         "describe the shipped program";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build: numbers would not describe the shipped program";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type == "Debug") return "Debug build type";
  return {};
#endif
}

Env capture_env(const std::string& git_sha, const std::string& digest) {
  Env e;
  e.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (e.nproc < 1) e.nproc = 1;
  e.simd = csdac::mathx::simd_backend_name(csdac::mathx::simd_backend());
  e.build_type = PERFBENCH_BUILD_TYPE;
  e.git_sha = git_sha;
  e.source_digest = digest;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) e.host_cpu = line.substr(colon + 2);
      break;
    }
  }
  return e;
}

}  // namespace perfbench
