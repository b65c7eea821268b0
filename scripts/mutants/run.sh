#!/usr/bin/env bash
# Standing mutation checks. Each *.patch in this directory plants one known
# defect; its "Mutant:" line says which, and each of its "Test:" lines
# gives the `cargo test` arguments that select one test that must fail on
# it.
#
# The tree is copied once to a throwaway directory with its own target
# directory; there, in release:
#   1. every named test passes with no patch applied;
#   2. each patch in turn applies, the tests still build, every test it
#      names fails, and the patch is reverted.
# The run fails if an unpatched test fails, a patch no longer applies or
# no longer builds, or a mutant survives (its test passes). A refactor that
# moves patched code must port the patch; a test edit that blinds an
# oracle, or renames a named test, shows up as a survivor.
#
#   scripts/mutants/run.sh [PATCH...]    (default: every patch here)
set -euo pipefail
cd "$(dirname "$0")/../.."
here="scripts/mutants"
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
  patches=("$here"/*.patch)
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/facil-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
log="$work/cargo.log"
tar --exclude=./target --exclude=./benchmark/target --exclude=./.git -cf - . | tar -xf - -C "$work"
export CARGO_TARGET_DIR="$work/target"

# Run cargo in the copy with its output kept in $log.
cargo_in_copy() {
  (cd "$work" && cargo "$@") > "$log" 2>&1
}

# The "Test:" lines of a patch, one per line.
test_args() {
  local args
  args="$(sed -n 's/^Test: //p' "$1")"
  if [ -z "$args" ]; then
    echo "$1 names no test (no 'Test:' line)" >&2
    exit 1
  fi
  echo "$args"
}

# Word splitting of the "Test:" arguments is intended below.
for patch in "${patches[@]}"; do
  test_args "$patch" > /dev/null
done
while read -r args; do
  # shellcheck disable=SC2086
  if ! cargo_in_copy test --release --offline -q $args -- --exact; then
    cat "$log" >&2
    echo "unpatched: $args fails" >&2
    exit 1
  fi
  echo "unpatched: $args passes"
done < <(for patch in "${patches[@]}"; do test_args "$patch"; done | sort -u)

survivors=0
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  if ! (cd "$work" && git apply --check -) < "$patch"; then
    echo "$name: patch no longer applies" >&2
    exit 1
  fi
  (cd "$work" && git apply -) < "$patch"
  while read -r args; do
    # shellcheck disable=SC2086
    if ! cargo_in_copy test --release --offline -q --no-run $args; then
      cat "$log" >&2
      echo "$name: the patched tree no longer builds" >&2
      exit 1
    fi
    # shellcheck disable=SC2086
    if cargo_in_copy test --release --offline -q $args -- --exact; then
      echo "$name: SURVIVED ($args passes)" >&2
      survivors=$((survivors + 1))
    else
      echo "$name: killed by $args"
    fi
  done < <(test_args "$patch")
  (cd "$work" && git apply -R -) < "$patch"
done
if [ "$survivors" -gt 0 ]; then
  echo "$survivors mutant(s) survived" >&2
  exit 1
fi
echo "mutants OK (${#patches[@]} patches, every named test failed on its mutant)"
