#!/bin/sh
# Usage: cli_run_cache_scope.sh <omn_design> <instance>
#
# An `omn_design run` script whose first `design` line uses --lp-cache
# and whose second does not.  The cache belongs to the first line only,
# so the second line must solve its own LP: its metrics file must say
# "lp_cache_hit": false.
set -eu
omn_design=$1
instance=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

printf 'design --instance %s --lp-cache %s/cache\ndesign --instance %s --metrics %s/second.json\n' \
  "$instance" "$dir" "$instance" "$dir" > "$dir/script.omn"
"$omn_design" run "$dir/script.omn"
grep -q '"lp_cache": ""' "$dir/second.json"
grep -q '"lp_cache_hit": false' "$dir/second.json" || {
  echo "second design was served from the first line's cache:" >&2
  cat "$dir/second.json" >&2
  exit 1
}
