// The one JSON string escaper of the codebase. Every serializer that quotes
// user-influenced text (the bench JsonWriter behind every serve reply,
// slow-log line and bench document, the load generator, the metrics/span
// exporters in this library) routes through it, so hostile labels —
// embedded quotes, backslashes, control characters — can corrupt no
// output format. Escapes the two mandatory characters plus everything
// below 0x20 (named escapes where JSON has them, \u00XX otherwise); all
// other bytes pass through untouched, so valid UTF-8 stays valid UTF-8.
#pragma once

#include <string>
#include <string_view>

namespace csdac::obs {

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
void append_json_escaped(std::string& out, std::string_view s);

/// Convenience: `s` escaped and wrapped in double quotes.
std::string json_quoted(std::string_view s);

/// Appends `s` to `out` with Prometheus label-value escaping (no
/// surrounding quotes): backslash, double quote, and line feed get a
/// backslash escape per the text-exposition spec; every other byte passes
/// through, so valid UTF-8 stays valid UTF-8. Routed through the same
/// translation unit as the JSON escaper on purpose — hostile label values
/// must be harmless in BOTH output formats, and the exposition tests feed
/// one corpus through both paths.
void append_prometheus_label_escaped(std::string& out, std::string_view s);

}  // namespace csdac::obs
