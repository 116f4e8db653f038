#!/usr/bin/env bash
# Docs-consistency gate for the serving protocol.
#
# docs/PROTOCOL.md promises to document every JSONL field the serving
# layer speaks. This script extracts the ground truth from the sources —
#   * response-side: every .field("...")/.raw_field("...") name in the
#     JSONL emitters (core/report.cpp's result_to_jsonl, the stream
#     session's result/control/barrier lines, the shard router's
#     rewritten/error lines, the supervisor's fleet control lines, the
#     socket dialer's auth handshake, and whatever the tools emit
#     themselves),
#   * request-side: the kKnownKeys job whitelist and the kControlKeys
#     control-line whitelist in src/service/job_parser.cpp —
# and fails when any name is missing from the doc (backtick-quoted, so a
# prose mention by accident does not count).
#
# CLI flags are gated in both directions: every flag the two tools
# register (add_flag/add_bool/add_multi in tools/saim_serve.cpp and
# tools/saim_shard.cpp) must appear in the doc as --name, and every
# flag-table row (| `--name` | ...) must name a flag the tools still
# register, so a deleted flag cannot linger in the table.
#
# Run from anywhere; ctest runs it as check_protocol_docs.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=docs/PROTOCOL.md
if [[ ! -f "$doc" ]]; then
  echo "FAIL: $doc does not exist"
  exit 1
fi

emitted=$(grep -hoE '\.(raw_)?field\("[a-z_]+"' \
            src/core/report.cpp tools/saim_serve.cpp tools/saim_shard.cpp \
            src/service/shard_router.cpp src/service/stream_session.cpp \
            src/service/supervisor.cpp src/service/service_stats.cpp \
            src/service/event_server.cpp src/net/socket_child.cpp |
          grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
accepted=$(awk '/kKnownKeys = \{/,/\};/' src/service/job_parser.cpp |
           grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
control=$(awk '/kControlKeys = \{/,/\};/' src/service/job_parser.cpp |
          grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)

flags=$(grep -hoE 'add_(flag|bool|multi)\("[a-z-]+"' \
          tools/saim_serve.cpp tools/saim_shard.cpp |
        grep -oE '"[a-z-]+"' | tr -d '"' | sort -u)
table_flags=$(grep -oE '^\| `--[a-z-]+` \|' "$doc" |
              grep -oE -- '--[a-z-]+' | sed 's/^--//' | sort -u)

if [[ -z "$emitted" || -z "$accepted" || -z "$control" || -z "$flags" ||
      -z "$table_flags" ]]; then
  echo "FAIL: could not extract field names (did the emitters move?)"
  exit 1
fi

fail=0
# shellcheck disable=SC2086  # word splitting intended: one field name per word
for f in $emitted $accepted $control; do
  if ! grep -q "\`$f\`" "$doc"; then
    echo "PROTOCOL drift: \"$f\" is spoken by the serving layer but not" \
         "documented in $doc"
    fail=1
  fi
done
# shellcheck disable=SC2086
for f in $flags; do
  if ! grep -qE -- "--$f([^a-z-]|\$)" "$doc"; then
    echo "PROTOCOL drift: --$f is a tool flag but not documented in $doc"
    fail=1
  fi
done
# shellcheck disable=SC2086
for f in $table_flags; do
  if ! grep -qx -- "$f" <<<"$flags"; then
    echo "PROTOCOL drift: $doc has a table row for --$f, which no tool" \
         "registers"
    fail=1
  fi
done

if [[ $fail -eq 0 ]]; then
  count=$(printf '%s\n%s\n%s\n' "$emitted" "$accepted" "$control" |
          sort -u | wc -l)
  echo "protocol docs OK: all $count field names and" \
       "$(wc -l <<<"$flags") flags documented in $doc"
fi
exit "$fail"
