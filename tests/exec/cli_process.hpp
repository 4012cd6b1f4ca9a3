// Process plumbing for the tests that drive the real vpmem_cli binary
// (path via VPMEM_CLI_PATH): a per-test scratch directory and fork/exec
// helpers.  Tests that include this fork, so they carry the "fork" ctest
// label and stay out of the ThreadSanitizer pass.
#pragma once

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vpmem::cli_test {

namespace fs = std::filesystem;

/// Scratch directory for one test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_{fs::temp_directory_path() /
              ("vpmem_cli_" + name + "_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// Fork/exec vpmem_cli with stderr routed to /dev/null and stdout to
/// `stdout_path` (/dev/null when empty).  Returns the child pid; the
/// caller waits (or kills) as the test demands.
inline pid_t spawn_cli(const std::vector<std::string>& args, const std::string& stdout_path = "") {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int devnull = ::open("/dev/null", O_WRONLY);
  const int out = stdout_path.empty()
                      ? devnull
                      : ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
  if (out >= 0) ::dup2(out, STDOUT_FILENO);
  std::vector<char*> argv;
  static const std::string cli = VPMEM_CLI_PATH;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  ::_exit(127);
}

/// Run to completion; returns the exit code (-signal if killed).
inline int run_cli(const std::vector<std::string>& args, const std::string& stdout_path = "") {
  const pid_t pid = spawn_cli(args, stdout_path);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

inline std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The argument list as one quoted line, for failure messages.
inline std::string quoted(const std::vector<std::string>& args) {
  std::string line;
  for (const auto& a : args) line += " '" + a + "'";
  return line;
}

}  // namespace vpmem::cli_test
