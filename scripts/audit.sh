#!/bin/sh
# The standing deletion audit (ROADMAP item 6): list every public item
# under crates/*/src that nothing outside its own file names.
#
# For each `pub (fn|struct|enum|trait|type|const) NAME`, print
# `file: NAME` when every whole-word match of NAME under crates, src,
# tests, examples and sysbench/src is in the defining file. A listed
# item is a candidate, not a verdict: a method reached only through a
# trait, or a name that is also an English word used elsewhere, reads
# wrong in either direction. The last line is the count ci.sh prints.
#
# usage: scripts/audit.sh   (from the repository root)
set -eu

git ls-files crates | grep -E '^crates/[^/]+/src/.*\.rs$' | while read -r file; do
    sed -n -E 's/^[[:space:]]*pub (const )?(unsafe )?(fn|struct|enum|trait|type|const) ([A-Za-z_][A-Za-z0-9_]*).*/\4/p' "$file" |
        sort -u | while read -r name; do
        others=$(grep -rlw --include='*.rs' -- "$name" crates src tests examples sysbench/src |
            grep -cvx "$file" || true)
        [ "$others" -ne 0 ] || echo "$file: $name"
    done
done | awk '{ print } END { print NR " public item(s) named only in their own file" }'
