// Shared command line of the two ingest daemons, bpsio_agentd and
// bpsio_collectord: the flags both take (bound to ingest::CommonOptions),
// the <drain path>.spool.d default, SIGINT/SIGTERM/SIGPIPE setup, and the
// start -> run -> "done (...)" sequence with its exit codes (0 ok, 1 server
// failure, 2 usage error).
//
// The shared flags are registered in groups so each daemon keeps its own
// --help order with its role flags in between.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/config.hpp"
#include "ingest/node.hpp"

namespace bpsio::cli {

inline std::atomic<bool> g_daemon_stop{false};

class DaemonCli {
 public:
  DaemonCli(const char* program, const char* summary,
            ingest::CommonOptions& opt)
      : program_(program), parser_(program, summary), opt_(opt) {
    opt_.stop = &g_daemon_stop;
  }

  ArgParser& parser() { return parser_; }

  void add_socket() {
    parser_.add_string("--socket", &opt_.socket_path, "PATH",
                       "Unix-domain socket to listen on (required)");
  }

  /// --http-port, --port-file, --csv, --csv-interval, --drain.
  void add_outputs(const char* csv_help) {
    parser_.add_int("--http-port", &http_port_, -1, 65535, "PORT",
                    "loopback /metrics port; 0 = ephemeral, -1 = no HTTP "
                    "(default 0)");
    parser_.add_string("--port-file", &opt_.port_file, "PATH",
                       "write the bound HTTP port here (for ephemeral ports)");
    parser_.add_string("--csv", &opt_.csv_path, "PATH", csv_help);
    parser_.add_positive_double("--csv-interval", &csv_interval_s_, "SECS",
                                "snapshot cadence (default 1)");
    parser_.add_string("--drain", &opt_.drain_path, "PATH",
                       "on shutdown, write every received record as one "
                       "merged .bpstrace");
  }

  void add_spool_dir(const char* help) {
    parser_.add_string("--spool-dir", &opt_.spool_dir, "DIR", help);
  }

  /// --window, --block-size.
  void add_window() {
    parser_.add_positive_double("--window", &window_ms_, "MS",
                                "sliding-window length for live metrics "
                                "(default 10000)");
    parser_.add_value("--block-size", "BYTES",
                      "block unit for byte figures (default 512; accepts 4K "
                      "suffixes)",
                      [this](const std::string& v) {
                        block_size_text_ = v;
                        return !v.empty();
                      });
  }

  /// Parse argv and fill the shared options. `drain_tenant_dir` also asks
  /// for spooling (its spools default to <dir>/all.spool.d). Returns the
  /// exit code when the program should stop here, -1 to go on.
  int parse(int argc, char** argv, const std::string& drain_tenant_dir = "") {
    std::vector<std::string> positionals;
    switch (parser_.parse(argc, argv, positionals)) {
      case ArgParser::Outcome::ok:
        break;
      case ArgParser::Outcome::help:
        return 0;
      case ArgParser::Outcome::error:
        return 2;
    }
    if (!positionals.empty()) {
      std::fprintf(stderr, "%s: unexpected operand '%s'\n%s", program_,
                   positionals.front().c_str(), parser_.usage().c_str());
      return 2;
    }
    if (opt_.socket_path.empty()) {
      std::fprintf(stderr, "%s: --socket is required\n%s", program_,
                   parser_.usage().c_str());
      return 2;
    }
    if (!block_size_text_.empty()) {
      const auto parsed = Config::parse_bytes(block_size_text_);
      if (!parsed || *parsed == 0) {
        std::fprintf(stderr, "%s: bad --block-size '%s'\n", program_,
                     block_size_text_.c_str());
        return 2;
      }
      opt_.block_size = *parsed;
    }
    opt_.http_port = static_cast<int>(http_port_);
    opt_.window =
        SimDuration(static_cast<std::int64_t>(window_ms_ * 1'000'000.0));
    opt_.csv_interval = SimDuration(
        static_cast<std::int64_t>(csv_interval_s_ * 1'000'000'000.0));
    const std::string spool_base =
        !opt_.drain_path.empty()     ? opt_.drain_path
        : !drain_tenant_dir.empty() ? drain_tenant_dir + "/all"
                                     : std::string();
    if (!spool_base.empty() && opt_.spool_dir.empty()) {
      opt_.spool_dir = spool_base + ".spool.d";
    }
    return -1;
  }

  /// Install the stop signals, start and run `server`, and report. `done`
  /// renders the figures of the final "done (...)" line.
  template <typename Server, typename Done>
  int serve(Server& server, const Done& done) {
    std::signal(SIGINT, [](int) { g_daemon_stop.store(true); });
    std::signal(SIGTERM, [](int) { g_daemon_stop.store(true); });
    std::signal(SIGPIPE, SIG_IGN);
    if (const Status started = server.start(); !started.ok()) {
      std::fprintf(stderr, "%s: %s\n", program_, started.to_string().c_str());
      return 1;
    }
    if (server.http_port() >= 0) {
      std::fprintf(stderr, "%s: listening (metrics on 127.0.0.1:%d)\n",
                   program_, server.http_port());
    }
    if (const Status ran = server.run(); !ran.ok()) {
      std::fprintf(stderr, "%s: %s\n", program_, ran.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s: done (%s)\n", program_, done().c_str());
    return 0;
  }

 private:
  const char* program_;
  ArgParser parser_;
  ingest::CommonOptions& opt_;
  long long http_port_ = 0;
  double csv_interval_s_ = 1.0;
  double window_ms_ = 10'000.0;
  std::string block_size_text_;
};

}  // namespace bpsio::cli
