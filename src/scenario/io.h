// Data-center serialization.
//
// Persists a complete DataCenter - node types with their P-state tables,
// node population, CRAC units, layout (placements and the hot-aisle split
// matrix), task types, the ECS table, the cross-interference matrix, the
// redlines and the power budget - to a versioned, line-oriented text format,
// and loads it back bit-for-bit (doubles round-trip through hex floats).
// This lets the CLI and the benchmark harness archive the exact instance
// behind any reported number.
//
// Loading never aborts on malformed input: every parse failure is a Status
// carrying the line of the offending token ("line N: ..."), under the
// lexical rules of util/text.h (docs/SCENARIOS.md "Lexical rules"), so
// callers - tapo_cli in particular - can print a diagnostic and exit instead
// of crashing. Counts are checked against the records that back them before
// anything is sized by them, and alpha passes thermal::inlet_mixing(). The
// runtime degraded-mode state (DataCenter::node_failed_mask,
// crac_min_outlet_c) is deliberately not serialized: a scenario file
// archives the healthy topology.
#pragma once

#include <iosfwd>
#include <string>

#include "dc/datacenter.h"
#include "util/status.h"

namespace tapo::scenario {

// Writes the data center; the stream receives a self-describing document
// beginning with "tapo-datacenter v1". Never fails: names are stored
// percent-encoded, so any character round-trips.
void save_data_center(const dc::DataCenter& dc, std::ostream& os);

// Parses a document produced by save_data_center, one record per line. On
// failure the status names the offending line.
util::StatusOr<dc::DataCenter> load_data_center(std::istream& is);

// Convenience file wrappers; load errors gain a "<path>:" prefix.
bool save_data_center_file(const dc::DataCenter& dc, const std::string& path);
util::StatusOr<dc::DataCenter> load_data_center_file(const std::string& path);

// Percent-encoding shared by every tapo text format for free-form names:
// space, '%' and newline are escaped so any name survives a line- or
// token-oriented document; decode inverts encode for arbitrary input.
std::string encode_name(const std::string& name);
std::string decode_name(const std::string& encoded);

}  // namespace tapo::scenario
