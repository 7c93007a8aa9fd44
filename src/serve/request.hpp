// Shared request parsing for the design service ("csdac-request/1"):
// one parser used by BOTH the batch front end (tools/csdac_serve on a
// file) and the network server (src/serve/server.*, on frames from
// untrusted sockets). Every schema violation throws RequestError with a
// stable machine-readable code, so the server can answer a structured
// error frame and keep serving — nothing in here calls exit().
//
// Because the network path feeds this parser hostile bytes, all count-like
// fields are clamped against explicit ceilings (the runtime::kMax* bounds
// of the kinds' Params lists) before they can size an allocation or a
// Monte-Carlo loop.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/job.hpp"
#include "runtime/json.hpp"

namespace csdac::serve {

inline constexpr std::string_view kRequestSchema = "csdac-request/1";

// Envelope ceilings; the job fields' ceilings sit beside their Params
// lists in runtime/job.hpp.
inline constexpr std::int64_t kMaxJobsPerRequest = 4096;
/// Client-supplied trace ids are capped so they embed whole in the
/// fixed-size flight-recorder events (kFlightTraceBytes minus the NUL).
inline constexpr std::size_t kMaxTraceIdBytes = 39;

/// Request-level failure with a stable error code for the wire protocol:
/// "bad_json", "bad_schema", "bad_request" (request envelope), or
/// "bad_job" (a job object's kind/fields/spec).
class RequestError : public std::runtime_error {
 public:
  RequestError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// One entry of a parsed request, in request order (duplicates NOT folded
/// here — dedup is the graph's / scheduler's job).
struct RequestJob {
  std::string id;  ///< caller's "id", or "jobN" by position
  runtime::Job job;
};

/// Parses a single job object through its kind's Params list, then
/// check_job. Throws RequestError("bad_job", ...).
runtime::Job parse_job(const runtime::JsonValue& job);

/// The kind's cross-field rules (the per-field rules are the Params
/// list's). Throws RequestError("bad_job", ...).
void check_job(const runtime::Job& job);

/// Validates the envelope (schema tag, jobs array) and parses every job.
std::vector<RequestJob> parse_request(const runtime::JsonValue& request);

/// parse_json + parse_request; throws RequestError("bad_json", ...) on
/// malformed text.
std::vector<RequestJob> parse_request_text(const std::string& text);

}  // namespace csdac::serve
