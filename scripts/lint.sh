#!/usr/bin/env bash
# Repo lint gate: clang-tidy over every first-party translation unit plus
# shellcheck over every script. This is THE entry point — CI's lint job
# runs `scripts/lint.sh --strict`, and a clean local run means a clean CI
# run (tool versions aside).
#
# Degrades gracefully: a missing tool is a SKIP note locally (the repo
# builds with plain gcc; clang-tidy/shellcheck are not required for
# development) but a FAILURE under --strict, so CI can never silently
# lose a linter.
#
# Usage: scripts/lint.sh [--strict] [--build-dir DIR]
#   --strict      missing tools and clang-tidy warnings are errors (CI)
#   --build-dir   build tree holding compile_commands.json (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

strict=0
build_dir=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) strict=1 ;;
    --build-dir)
      [[ $# -ge 2 ]] || { echo "lint: --build-dir needs an argument"; exit 2; }
      build_dir=$2
      shift
      ;;
    *)
      echo "usage: scripts/lint.sh [--strict] [--build-dir DIR]"
      exit 2
      ;;
  esac
  shift
done

status=0

skip_or_fail() {
  if [[ $strict -eq 1 ]]; then
    echo "lint: FAIL: $1 (required under --strict)"
    status=1
  else
    echo "lint: SKIP: $1"
  fi
}

# ------------------------------------------------------------- clang-tidy
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    echo "lint: generating $build_dir/compile_commands.json"
    cmake -B "$build_dir" -S . >/dev/null
  fi
  # First-party translation units only; the .clang-tidy config scopes
  # header diagnostics to the repo via HeaderFilterRegex.
  tus=()
  while IFS= read -r tu; do
    tus+=("$tu")
  done < <(find src tools bench -name '*.cpp' | sort)
  tidy_args=(-p "$build_dir" --quiet)
  if [[ $strict -eq 1 ]]; then
    tidy_args+=(--warnings-as-errors='*')
  fi
  echo "lint: clang-tidy over ${#tus[@]} translation units"
  if ! clang-tidy "${tidy_args[@]}" "${tus[@]}"; then
    echo "lint: FAIL: clang-tidy reported errors"
    status=1
  fi
else
  skip_or_fail "clang-tidy not installed"
fi

# ------------------------------------------------------------- shellcheck
if command -v shellcheck >/dev/null 2>&1; then
  scripts=()
  while IFS= read -r sh; do
    scripts+=("$sh")
  done < <(find scripts tests/e2e -name '*.sh' | sort)
  echo "lint: shellcheck over ${#scripts[@]} scripts"
  if ! shellcheck "${scripts[@]}"; then
    echo "lint: FAIL: shellcheck reported issues"
    status=1
  fi
else
  skip_or_fail "shellcheck not installed"
fi

if [[ $status -eq 0 ]]; then
  echo "lint: OK"
fi
exit $status
