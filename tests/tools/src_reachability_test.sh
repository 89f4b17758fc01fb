#!/usr/bin/env bash
# No src/ module that only tests reach.
#
# Walks `#include "..."` from every source under tools/, perfbench/, bench/
# and examples/. An include resolves against the including file's directory
# first, then src/. A reached header also pulls in its same-name .cpp,
# whose includes are walked in turn. Fails, naming each one, when a
# src/**/*.hpp is never reached: such a module is either deleted or given
# an entry point.
#
#   src_reachability_test.sh <repo-root>
set -u

ROOT=${1:?usage: src_reachability_test.sh <repo-root>}
cd "$ROOT" || exit 1

# Modules kept although no entry point includes them, one per line, with
# the reason:
#   sim/schedule_io — the text schedule format is the input of the
#     fuzz_schedule lane (tests/fuzz/), which fuzzes sim::validate and the
#     oracle in CI.
ALLOWED="sim/schedule_io"

declare -A seen=()
queue=()
reach() {
  [[ -n ${seen[$1]+x} ]] && return
  seen[$1]=1
  queue+=("$1")
}

while IFS= read -r file; do
  reach "$file"
done < <(find tools perfbench bench examples -type f \
  \( -name '*.cpp' -o -name '*.hpp' \) | sort)
if [ ${#queue[@]} -eq 0 ]; then
  echo "FAIL: no entry-point sources under $ROOT" >&2
  exit 1
fi

for ((i = 0; i < ${#queue[@]}; ++i)); do
  file=${queue[i]}
  if [[ $file == src/*.hpp && -f ${file%.hpp}.cpp ]]; then
    reach "${file%.hpp}.cpp"
  fi
  dir=$(dirname "$file")
  while IFS= read -r inc; do
    if [ -f "$dir/$inc" ]; then
      reach "$(realpath --relative-to=. "$dir/$inc")"
    elif [ -f "src/$inc" ]; then
      reach "src/$inc"
    fi
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$file")
done

failures=0
while IFS= read -r header; do
  module=${header#src/}
  module=${module%.hpp}
  [[ -n ${seen[$header]+x} ]] && continue
  if grep -qxF "$module" <<<"$ALLOWED"; then continue; fi
  echo "FAIL: $header is reached from no entry point (tools/, perfbench/," \
       "bench/, examples/)" >&2
  failures=$((failures + 1))
done < <(find src -type f -name '*.hpp' | sort)

if [ "$failures" -ne 0 ]; then
  echo "$failures src/ module(s) only tests reach" >&2
  exit 1
fi
echo "OK: every src/ header is reachable from an entry point"
