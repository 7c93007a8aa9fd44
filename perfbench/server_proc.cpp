// The measured server as a child process: spawned with its cache, port
// file and log under the run's work directory, driven over the public
// client, and always reaped before the runner exits.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "perfbench.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, const std::string& dir,
                             int workers)
    : port_file_(dir + "/port") {
  const std::string cache = dir + "/cache";
  const std::string log = dir + "/server.log";
  const std::string workers_s = std::to_string(workers);
  std::vector<std::string> args = {binary,       "--listen",
                                   "--port",     "0",
                                   "--port-file", port_file_,
                                   "--workers",  workers_s,
                                   "--cache",    cache};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server must not outlive a runner that dies without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(10.0);
  }
}

void ServerProcess::wait_ready(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (port_ == 0) {
    const std::string p = read_file(port_file_);
    if (!p.empty() && p.back() == '\n') port_ = std::atoi(p.c_str());
    if (port_ > 0) break;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up");
    }
    if (now_s() > deadline) throw std::runtime_error("server start timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::string reply = control("ping");
  if (reply.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("bad ping reply: " + reply);
  }
}

std::string ServerProcess::control(const std::string& cmd) {
  csdac::serve::Client c;
  std::string err;
  if (!c.connect("127.0.0.1", port_, &err)) throw std::runtime_error(err);
  std::string reply;
  const auto st =
      c.call(R"({"schema":"csdac-ctl/1","cmd":")" + cmd + "\"}", reply);
  if (st != csdac::serve::FrameStatus::kOk) {
    throw std::runtime_error("ctl " + cmd + ": " +
                             std::string(csdac::serve::frame_status_name(st)));
  }
  return reply;
}

Registry ServerProcess::metrics() {
  csdac::runtime::JsonValue doc;
  std::string err;
  if (!csdac::runtime::parse_json(control("metrics"), doc, &err)) {
    throw std::runtime_error("metrics reply: " + err);
  }
  const std::string text = doc.string_or("prometheus", "");
  Registry r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos || line.find('{') < sp) continue;
    r[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return r;
}

void ServerProcess::shutdown() {
  if (pid_ <= 0) return;
  try {
    control("shutdown");
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  reap(20.0);
}

void ServerProcess::reap(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (pid_ > 0) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      return;
    }
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

double ServerProcess::cpu_seconds() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the line, i.e. the 12th and 13th after ") ".
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && (in >> field); ++i) {
    if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::istringstream in(read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double reg(const Registry& r, const std::string& name) {
  const auto it = r.find(name);
  return it == r.end() ? 0.0 : it->second;
}

}  // namespace perfbench
