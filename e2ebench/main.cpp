// bpsio_e2e — the end-to-end benchmark's helper binary; run.py drives it.
//
//   bpsio_e2e app     application load (spill_report, live_fleet, floor)
//   bpsio_e2e fanin   agent connections straight into bpsio_collectord
//   bpsio_e2e ledger  traced replay through each layer's entry points
//   bpsio_e2e check   totals, digest and overlap_time_paper of a trace or
//                     a directory of traces (the correctness gates)
//   bpsio_e2e membw   memory-bandwidth ceiling and machine description
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis.hpp"
#include "common.hpp"
#include "metrics/overlap.hpp"

namespace e2e {
int run_app(const Flags& flags);
int run_fanin(const Flags& flags);
int run_ledger(const Flags& flags);

namespace {

int run_check(const Flags& flags) {
  const std::string path = flags.str("path");
  std::vector<std::string> files = trace_files(path);
  if (files.empty() && !path.empty() && path.size() > 9 &&
      path.compare(path.size() - 9, 9, ".bpstrace") == 0) {
    files.push_back(path);
  }
  std::vector<bpsio::trace::IoRecord> recs;
  std::string error;
  bool ok = true;
  for (const std::string& f : files) ok = ok && read_trace_raw(f, recs, error);
  Digest d;
  std::vector<bpsio::trace::TimeInterval> iv;
  iv.reserve(recs.size());
  for (const auto& r : recs) {
    d.add(r);
    iv.push_back({r.start_ns, r.end_ns});
  }
  JsonLine out;
  out.put_bool("ok", ok);
  out.put("error", error);
  out.put("files", static_cast<std::uint64_t>(files.size()));
  out.put("records", d.records);
  out.put("blocks", d.blocks);
  out.put("digest", d.hash);
  out.put("t_paper_ns", bpsio::metrics::overlap_time_paper(std::move(iv)).ns());
  std::cout << out.str() << std::endl;
  return ok ? 0 : 1;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

/// Read bandwidth over an array at least 4x the last-level cache: the
/// median of several timed summing passes.
int run_membw(const Flags& flags) {
  long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t bytes =
      std::max<std::size_t>(static_cast<std::size_t>(llc) * 4, std::size_t{64} << 20);
  const int passes = static_cast<int>(flags.num("passes", 7));
  std::vector<std::uint64_t> a(passes > 0 ? bytes / sizeof(std::uint64_t) : 0);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i * 0x9e3779b97f4a7c15ULL;
  std::vector<double> gbps;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const std::int64_t t0 = now_ns();
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::size_t i = 0; i + 3 < a.size(); i += 4) {
      s0 += a[i];
      s1 += a[i + 1];
      s2 += a[i + 2];
      s3 += a[i + 3];
    }
    const std::int64_t t1 = now_ns();
    sink += s0 + s1 + s2 + s3;
    gbps.push_back(static_cast<double>(bytes) / static_cast<double>(t1 - t0));
  }
  JsonLine out;
  out.put("mem_bw_gbps", gbps.empty() ? 0.0 : percentile_of(gbps, 0.5));
  out.put("array_mb", static_cast<double>(bytes) / (1 << 20));
  out.put("llc_mb", static_cast<double>(llc) / (1 << 20));
  out.put("cpu_model", cpu_model());
  out.put("checksum", sink);
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const e2e::Flags flags(argc, argv, 2);
  if (cmd == "app") return e2e::run_app(flags);
  if (cmd == "fanin") return e2e::run_fanin(flags);
  if (cmd == "ledger") return e2e::run_ledger(flags);
  if (cmd == "check") return e2e::run_check(flags);
  if (cmd == "membw") return e2e::run_membw(flags);
  std::fprintf(stderr, "usage: bpsio_e2e app|fanin|ledger|check|membw [--flag=value...]\n");
  return 2;
}
