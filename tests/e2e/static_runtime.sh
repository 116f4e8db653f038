#!/usr/bin/env bash
# The server tools link the C++ runtime statically.
#
# Reads each binary's dynamic section and fails if it NEEDs the shared
# libstdc++ or libgcc_s: either would put ld.so's load, relocation and
# lazy binding of that library back on every server start-up (and every
# shard respawn). libc and libm stay dynamic and are not checked.
#
# Usage: tests/e2e/static_runtime.sh READELF BINARY...
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 READELF BINARY..." >&2
  exit 2
fi

readelf=$1
shift

fail=0
for bin in "$@"; do
  needed=$("$readelf" -d "$bin" | grep -F '(NEEDED)' || true)
  if [[ -z $needed ]]; then
    echo "FAIL: $bin has no NEEDED entries; is it a dynamic executable?" >&2
    fail=1
    continue
  fi
  for lib in libstdc++.so libgcc_s.so; do
    if grep -qF -- "[$lib" <<<"$needed"; then
      echo "FAIL: $bin NEEDs $lib" >&2
      fail=1
    fi
  done
done

if [[ $fail -eq 0 ]]; then
  echo "ok: $# binaries link the C++ runtime statically"
fi
exit "$fail"
