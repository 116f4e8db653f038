#!/usr/bin/env bash
# Docs-consistency gate for the serving protocol.
#
# docs/PROTOCOL.md promises to document every JSONL field the serving
# layer speaks. This script extracts the ground truth from the sources —
#   * response-side: every .field("...")/.raw_field("...") name in the
#     JSONL emitters (core/report.cpp's result_to_jsonl, the stream
#     session's result/control/barrier lines, the shard router's
#     rewritten/error lines, the supervisor's fleet control lines, and
#     whatever the tools emit themselves),
#   * request-side: the kKnownKeys job whitelist, the kControlKeys
#     control-line whitelist and the kCommands control-command list in
#     src/service/job_parser.cpp —
# and fails when any name is missing from the doc (backtick-quoted, so a
# prose mention by accident does not count).
#
# Job keys, control commands and CLI flags are gated in both directions:
# every flag the two tools register (add_flag/add_bool in
# tools/saim_serve.cpp and tools/saim_shard.cpp) must appear in the doc as
# --name, every row of the job-field tables (the `| \`name\` |` rows of
# "## Request lines") must name a key in kKnownKeys, every row of the
# `cmd` table ("## Control lines") a command in kCommands, and every
# flag-table row (| `--name` | ...) a flag the tools still register — so
# a deleted key, command or flag cannot linger in a table. Every key of
# the {"cmd":"stats"} snapshot example must be an emitted name, and a
# short list of metric series the doc names one by one is pinned both
# ways too.
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
            src/service/event_server.cpp |
          grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
accepted=$(awk '/kKnownKeys = \{/,/\};/' src/service/job_parser.cpp |
           grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
control=$(awk '/kControlKeys = \{/,/\};/' src/service/job_parser.cpp |
          grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
commands=$(awk '/kCommands[^=]*= \{/,/\};/' src/service/job_parser.cpp |
           grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)

# Backtick-quoted first cells of the table body rows inside one "## "
# section (a header row, the one right above a |---| line, is skipped).
table_rows() {
  awk -v section="$1" '
    /^## / { inside = ($0 == "## " section) }
    !inside { held = 0; next }
    /^\|[-| ]+\|$/ { held = 0; next }
    { if (held) print row; held = 0 }
    /^\| `[a-z_]+` \|/ { row = $0; held = 1 }
    END { if (held) print row }
  ' "$doc" | grep -oE '^\| `[a-z_]+`' | grep -oE '[a-z_]+' | sort -u
}
table_keys=$(table_rows "Request lines")
table_cmds=$(table_rows "Control lines")

flags=$(grep -hoE 'add_(flag|bool)\("[a-z-]+"' \
          tools/saim_serve.cpp tools/saim_shard.cpp |
        grep -oE '"[a-z-]+"' | tr -d '"' | sort -u)
table_flags=$(grep -oE '^\| `--[a-z-]+` \|' "$doc" |
              grep -oE -- '--[a-z-]+' | sed 's/^--//' | sort -u)

if [[ -z "$emitted" || -z "$accepted" || -z "$control" || -z "$commands" ||
      -z "$flags" || -z "$table_flags" || -z "$table_keys" ||
      -z "$table_cmds" ]]; then
  echo "FAIL: could not extract field names (did the emitters move?)"
  exit 1
fi

fail=0
# shellcheck disable=SC2086  # word splitting intended: one field name per word
for f in $emitted $accepted $control $commands; do
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
for f in $table_keys; do
  if ! grep -qx -- "$f" <<<"$accepted"; then
    echo "PROTOCOL drift: $doc has a job-field row for \"$f\", which the" \
         "parser does not accept"
    fail=1
  fi
done
# shellcheck disable=SC2086
for f in $table_cmds; do
  if ! grep -qx -- "$f" <<<"$commands"; then
    echo "PROTOCOL drift: $doc has a cmd row for \"$f\", which is not a" \
         "control command"
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

# The {"cmd":"stats"} snapshot example, checked the other way round:
# every key it shows must be a name the sources emit, so a counter the
# service no longer reports cannot linger in the example.
stats_keys=$(awk '
    index($0, "### `{\"cmd\":\"stats\"}`") == 1 { section = 1; next }
    section && /^```json$/ { inside = 1; next }
    inside && /^```$/ { exit }
    inside
  ' "$doc" | grep -oE '"[a-z_]+":' | tr -d '":' | sort -u)
if [[ -z "$stats_keys" ]]; then
  echo "FAIL: could not extract the {\"cmd\":\"stats\"} example from $doc"
  exit 1
fi
# shellcheck disable=SC2086
for f in $stats_keys; do
  if ! grep -qx -- "$f" <<<"$emitted"; then
    echo "PROTOCOL drift: the {\"cmd\":\"stats\"} example in $doc shows" \
         "\"$f\", which no source emits"
    fail=1
  fi
done

# Metric series the doc names one by one: each must be named in the doc
# and still be exported by the sources (a string literal in src/ or
# tools/), so neither side can drop it alone.
pinned_metrics="saim_jobs_never_feasible_total saim_connections_open
  saim_connections_accepted_total saim_connections_rejected_total
  saim_sessions_timed_out_total saim_router_sheds_total
  saim_shard_routed_total saim_shard_spilled_total"
# shellcheck disable=SC2086
for f in $pinned_metrics; do
  if ! grep -q "\`$f\`" "$doc"; then
    echo "PROTOCOL drift: metric $f is not documented in $doc"
    fail=1
  fi
  if ! grep -rqF "\"$f\"" src tools; then
    echo "PROTOCOL drift: $doc names metric $f, which no source exports"
    fail=1
  fi
done

if [[ $fail -eq 0 ]]; then
  count=$(printf '%s\n%s\n%s\n' "$emitted" "$accepted" "$control" |
          sort -u | wc -l)
  echo "protocol docs OK: all $count field names," \
       "$(wc -l <<<"$commands") commands and $(wc -l <<<"$flags") flags" \
       "documented in $doc; every table row is live"
fi
exit "$fail"
