#include "common.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "trace/serialize.hpp"

namespace e2e {

using bpsio::trace::IoRecord;

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "1";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

std::string Flags::str(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Flags::num(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

void JsonLine::put(const std::string& k, double value) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
}

void JsonLine::put(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonLine::put(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonLine::put(const std::string& k, const std::string& value) {
  key(k);
  body_ += "\"" + value + "\"";
}

void JsonLine::put_bool(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int open_unrecorded(const std::string& path) {
  return static_cast<int>(::syscall(SYS_openat, AT_FDCWD, path.c_str(),
                                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                                    0644));
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> scrape(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  static const char kRequest[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, kRequest, sizeof kRequest - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof kRequest - 1)) {
    ::close(fd);
    return std::nullopt;
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return std::nullopt;
  }
  return response.substr(body + 4);
}

std::optional<double> metric_value(const std::string& body,
                                   const std::string& metric,
                                   const std::string& label) {
  std::size_t at = 0;
  while (at < body.size()) {
    std::size_t eol = body.find('\n', at);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + at, eol - at);
    at = eol + 1;
    if (line.rfind(metric, 0) != 0) continue;
    const std::string_view rest = line.substr(metric.size());
    std::string_view value;
    if (label.empty()) {
      if (rest.empty() || rest[0] != ' ') continue;
      value = rest.substr(1);
    } else {
      if (rest.empty() || rest[0] != '{') continue;
      const auto close = rest.find('}');
      if (close == std::string_view::npos) continue;
      if (rest.substr(0, close).find(label) == std::string_view::npos) continue;
      value = rest.substr(close + 1);
    }
    return std::strtod(std::string(value).c_str(), nullptr);
  }
  return std::nullopt;
}

bool read_trace_raw(const std::string& path, std::vector<IoRecord>& out,
                    std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = path + ": " + std::strerror(errno);
    return false;
  }
  bpsio::trace::TraceHeader header{};
  bool ok = std::fread(&header, sizeof header, 1, f) == 1 &&
            header.magic == bpsio::trace::kTraceMagic &&
            header.record_size == sizeof(IoRecord);
  if (ok) {
    const std::size_t base = out.size();
    out.resize(base + header.record_count);
    ok = std::fread(out.data() + base, sizeof(IoRecord), header.record_count,
                    f) == header.record_count;
    // The header count must cover the whole file: a trailing partial or
    // uncounted record means the writer did not finish.
    ok = ok && std::fgetc(f) == EOF;
  }
  std::fclose(f);
  if (!ok) error = path + ": malformed or truncated trace";
  return ok;
}

std::vector<std::string> trace_files(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 9 && name.compare(name.size() - 9, 9, ".bpstrace") == 0) {
      files.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<FaninConn> fanin_plan(std::uint64_t seed, std::uint32_t conns) {
  static const char* const kCold[] = {"cold-a", "cold-b", "cold-c"};
  const std::uint32_t hot = std::max<std::uint32_t>(1, conns / 2);
  std::vector<FaninConn> plan(conns);
  for (std::uint32_t c = 0; c < conns; ++c) {
    FaninConn& conn = plan[c];
    conn.tenant = c < hot ? "hot" : kCold[(c - hot) % 3];
    std::mt19937_64 rng(seed * 7919 + c);
    constexpr std::uint32_t per_stream =
        kFaninTileFrames / kFaninStreams * kFaninFrameRecords;
    constexpr std::int64_t kGap = 2000;  // ns between starts within a stream
    std::vector<std::vector<IoRecord>> streams(kFaninStreams);
    std::int64_t last_end = 0;
    for (std::uint32_t s = 0; s < kFaninStreams; ++s) {
      const std::int64_t offset = static_cast<std::int64_t>(rng() % kGap);
      streams[s].reserve(per_stream);
      for (std::uint32_t i = 0; i < per_stream; ++i) {
        IoRecord r;
        r.pid = 10000 + c * 100 + s;
        r.op = (rng() & 3) == 0 ? bpsio::trace::IoOpKind::write
                                : bpsio::trace::IoOpKind::read;
        r.blocks = 1 + rng() % 64;
        r.start_ns = offset + static_cast<std::int64_t>(i) * kGap +
                     static_cast<std::int64_t>(rng() % (kGap / 2));
        // Durations from 0.5 to 8 gaps: overlaps within and across streams.
        r.end_ns = r.start_ns + kGap / 2 +
                   static_cast<std::int64_t>(rng() % (kGap * 15 / 2));
        last_end = std::max(last_end, r.end_ns);
        streams[s].push_back(r);
      }
    }
    conn.span_ns = last_end;
    conn.frames.resize(kFaninTileFrames);
    for (std::uint32_t f = 0; f < kFaninTileFrames; ++f) {
      const std::uint32_t s = f % kFaninStreams;
      const std::uint32_t chunk = f / kFaninStreams;
      FaninFrame& frame = conn.frames[f];
      frame.stream = s + 1;
      frame.records.assign(
          streams[s].begin() + chunk * kFaninFrameRecords,
          streams[s].begin() + (chunk + 1) * kFaninFrameRecords);
    }
  }
  return plan;
}

}  // namespace e2e
