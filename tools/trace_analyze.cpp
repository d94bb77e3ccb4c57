// trace_analyze — offline analysis of QOSTRC02 trace files.
//
//   trace_analyze FILE.trace.bin [--delta US]
//
// A trace file holds one or more QOSTRC02 streams back to back: one per
// traced sweep cell, or the single stream of a giant run.  For each stream
// it prints the deadline-miss attribution (every miss in exactly one cause
// class) and Miser slack accounting, off the file cursor in O(chunk)
// memory — a 10^8-span trace analyzes without ever holding the spans.
//
// --delta overrides the deadline recorded in each stream, for what-if
// analysis against a different SLA; it must be a positive whole number of
// microseconds, or the tool prints usage and exits 2.  Exits 1 on
// unreadable or corrupt input, printing nothing on stdout.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/trace_stream.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s FILE.trace.bin [--delta US]\n", argv0);
  return 2;
}

/// The whole of `text` as a positive integer, or -1.
qos::Time parse_delta(const char* text) {
  const char* end = text + std::strlen(text);
  qos::Time value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  return ec == std::errc() && ptr == end && value > 0 ? value : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  qos::Time delta_override = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--delta") == 0) {
      if (i + 1 == argc) return usage(argv[0]);
      delta_override = parse_delta(argv[++i]);
      if (delta_override < 0) return usage(argv[0]);
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
