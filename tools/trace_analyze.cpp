// trace_analyze — offline analysis of QOSTRC02 trace files.
//
//   trace_analyze FILE.trace.bin [--delta US]
//
// A trace file holds one or more QOSTRC02 streams back to back: one per
// traced sweep cell, or the single stream of a giant run.  For each stream
// it prints the deadline-miss attribution (every miss in exactly one cause
// class) and Miser slack accounting, off the file cursor in O(chunk)
// memory — a 10^8-span trace analyzes without ever holding the spans.  The
// queue timeline needs every span at once, so it is omitted here;
// reconstruct_queue_timeline (obs/trace_analysis.h) computes it from a
// materialized TraceData.
//
// --delta overrides the deadline recorded in each stream, for what-if
// analysis against a different SLA.  Exits 1 on unreadable or corrupt
// input, printing nothing on stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/trace_stream.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s FILE.trace.bin [--delta US]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  qos::Time delta_override = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      delta_override = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return usage(argv[0]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path == nullptr) return usage(argv[0]);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_analyze: cannot open %s\n", path);
    return 1;
  }

  // Every stream is checked before anything is printed, so a corrupt file
  // yields no partial report.
  std::string report;
  do {
    const auto analysis = qos::analyze_trace_stream(in, delta_override);
    if (!analysis) {
      std::fprintf(stderr, "trace_analyze: %s is not a valid trace file\n",
                   path);
      return 1;
    }
    report += std::string(path) + ": streamed trace (" +
              std::to_string(analysis->footer.spans) + " spans)\n";
    report += qos::trace_analysis_text_stream(*analysis);
  } while (in.peek() != std::char_traits<char>::eof());
  std::fputs(report.c_str(), stdout);
  return 0;
}
