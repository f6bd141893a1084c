// A job Server in a forked child: the victim of the crash campaigns
// (serve_loadtest --crash-after, session_crash). SIGKILL is the only honest
// crash — no destructor runs, so the socket file and the journal tail are
// left exactly as a real crash leaves them. Reconnecting and resubmitting
// stay with each bench, whose client protocols differ.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "serve/server.hpp"

namespace morph::bench {

class ServerProcess {
 public:
  explicit ServerProcess(serve::ServerConfig cfg) : cfg_(std::move(cfg)) {}
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// A child still running at scope exit (an error path) is crashed.
  ~ServerProcess() { crash(); }

  /// Forks a child serving the config until a client shutdown or a signal;
  /// returns once its socket is listening. Called again after crash(), it
  /// starts the recovery child on the same socket and journal. Returns
  /// false if the child could not be started.
  bool start() {
    int ready[2];
    if (::pipe(ready) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(ready[0]);
      ::close(ready[1]);
      return false;
    }
    if (pid == 0) {
      ::close(ready[0]);
      ::signal(SIGPIPE, SIG_IGN);
      {
        serve::Server server(cfg_);
        const Status s = server.start();
        if (!s.ok()) {
          std::cerr << "server child: " << s.to_string() << "\n";
          ::close(ready[1]);
          std::_Exit(1);
        }
        const char b = 1;
        [[maybe_unused]] const ssize_t w = ::write(ready[1], &b, 1);
        ::close(ready[1]);
        server.wait();
      }
      std::_Exit(0);  // clean path: the Server destructor already ran
    }
    ::close(ready[1]);
    char b = 0;
    ssize_t r;
    while ((r = ::read(ready[0], &b, 1)) < 0 && errno == EINTR) {
    }
    ::close(ready[0]);
    if (r == 1) {
      pid_ = pid;
      return true;
    }
    ::waitpid(pid, nullptr, 0);
    return false;
  }

  /// SIGKILLs the child and reaps it (no-op when none is running).
  void crash() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    reap();
  }

  /// crash(), then start() the recovery child.
  bool restart() {
    crash();
    return start();
  }

  /// Waits for the child to exit on its own, after a client shutdown.
  void reap() {
    if (pid_ <= 0) return;
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  serve::ServerConfig cfg_;
  pid_t pid_ = -1;
};

}  // namespace morph::bench
