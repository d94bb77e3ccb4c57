// SPC-1 style trace parsing.
//
// The UMass Storage Repository traces (WebSearch, Financial/FinTrans) that
// the paper evaluates are distributed in the SPC format:
//
//   ASU,LBA,size_bytes,opcode,timestamp_seconds
//
// with opcode 'r'/'R' for reads and 'w'/'W' for writes and a float timestamp
// in seconds from trace start.  This parser lets those public traces be used
// unchanged when available; the calibrated synthetic presets in
// trace/presets.h stand in for them offline.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "trace/trace.h"

namespace qos {

/// Parse one SPC record line into `out` (seq is left untouched — the
/// consumer numbers records).  False for malformed lines: wrong field count,
/// unparsable numbers, zero or uint32-overflowing block counts, negative /
/// non-finite / unrepresentably large timestamps, unknown opcodes.  Empty
/// lines are malformed too; callers that want parse_spc's skip-counting
/// semantics (blank lines silently ignored, everything else counted) must
/// test for emptiness first.  parse_spc applies it line by line.
bool parse_spc_line(std::string_view line, Request& out);

/// Parse SPC trace text.  Lines parse_spc_line rejects are skipped; a count
/// of skipped lines can be retrieved via the optional out-param.  The
/// returned trace always satisfies Trace::validate() (non-monotonic input
/// timestamps are sorted by the Trace constructor).
Trace parse_spc(const std::string& text, std::size_t* skipped_lines = nullptr);

/// Serialize a trace to SPC text (one line per request).
std::string to_spc(const Trace& trace);

/// Load and parse an SPC trace file.  Returns nullopt when the file cannot
/// be opened or read (the error path callers must handle); `skipped_lines`
/// reports malformed lines as in parse_spc.
std::optional<Trace> try_load_spc_file(const std::string& path,
                                       std::size_t* skipped_lines = nullptr);

}  // namespace qos
