#!/usr/bin/env bash
# Cold/warm smoke test of one batch request through csdac_serve.
#
#   tools/smoke.sh REQUEST NAME [check_metrics.py flags...]
#
# Run from the repository root after building csdac_serve into build/.
# Answers REQUEST twice against a fresh cache directory .csdac-NAME-cache,
# cold and then warm, writing the csdac-serve/4 replies
# response_NAME_{cold,warm}.json, metrics_NAME_{cold,warm}.prom and
# chrome_NAME_{cold,warm}.json into the current directory. It then asserts
# that
#   * both replies are csdac-serve/4 documents;
#   * check_metrics.py --cold/--warm, plus the given flags, accepts the
#     dumps (the warm run recomputed nothing);
#   * the cold and warm results are identical, job by job;
#   * every warm job was answered by a cache tier ("cache" is not "miss").
# Exits nonzero on the first failure.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: tools/smoke.sh REQUEST NAME [check_metrics flags...]" >&2
  exit 2
fi
request=$1
name=$2
shift 2
tools=$(dirname "$0")
serve=$tools/../build/tools/csdac_serve
cache=.csdac-$name-cache

rm -rf "$cache"
for pass in cold warm; do
  "$serve" "$request" --cache "$cache" \
    --metrics-out "metrics_${name}_${pass}.prom" \
    --chrome-trace "chrome_${name}_${pass}.json" \
    --out "response_${name}_${pass}.json"
done

python3 "$tools/check_metrics.py" --cold "metrics_${name}_cold.prom" \
  --warm "metrics_${name}_warm.prom" "$@"

python3 - "response_${name}_cold.json" "response_${name}_warm.json" <<'EOF'
import json
import sys

cold, warm = (json.load(open(path)) for path in sys.argv[1:3])
for doc in (cold, warm):
    assert doc["schema"] == "csdac-serve/4", doc["schema"]
rc = {j["id"]: j["result"] for j in cold["jobs"]}
rw = {j["id"]: j["result"] for j in warm["jobs"]}
assert rc == rw, "warm results differ from cold"
missed = [j["id"] for j in warm["jobs"] if j["cache"] == "miss"]
assert not missed, f"warm jobs not answered by the cache: {missed}"
print(f"OK: {len(rc)} results identical across cold/warm, "
      f"all warm jobs cache hits")
EOF
