// Shared result emission for the design service: the per-kind JSON body
// under each job's "result" key of a "csdac-serve/4" reply (answer.hpp),
// whether the server sends it as a frame or batch mode writes it to a
// file.
//
// serve/4 (over serve/3) adds request-scoped tracing: every reply carries
// the request's "trace_id" (client-supplied or server-minted) and every
// job entry a "stages" object attributing its latency to admission /
// queue / hot / disk / compute / store / serialize, microseconds.
#pragma once

#include "bench_json.hpp"
#include "runtime/job.hpp"

namespace csdac::serve {

/// Reply schema of answer() (one document per request).
inline constexpr std::string_view kResponseSchema = "csdac-serve/4";
/// Control-channel schema (ping / metrics / shutdown / dump).
inline constexpr std::string_view kControlSchema = "csdac-ctl/1";

/// Writes `"result": { ...kind-specific fields... }` for the value.
void emit_result(bench::JsonWriter& w, const runtime::JobValue& value);

/// Writes a complete "csdac-serve/4" error frame body:
/// {"schema":...,"error":{"code":...,"message":...}}.
std::string error_frame(std::string_view code, std::string_view message);

}  // namespace csdac::serve
