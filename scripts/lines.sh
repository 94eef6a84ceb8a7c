#!/usr/bin/env bash
# Non-test Rust lines per crate: each file under crates/*/src up to its
# first `#[cfg(test)]` line. A file whose header (the lines before its
# first `{`) holds `#![cfg(test)]` is test code throughout and counts 0;
# integration tests (crates/*/tests, tests/) are not under src and are not
# counted.
#
#   scripts/lines.sh          # the working tree
#   scripts/lines.sh <rev>    # the working tree beside <rev>, and the change
#
# The revision is read with `git show`, without a checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

# Prints the non-test line count of the Rust source on stdin.
count() {
    awk '
        !opened && /^[[:space:]]*#!\[cfg\(test\)\][[:space:]]*$/ { n = 0; exit }
        /\{/ { opened = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { print n + 0 }
    '
}

# Prints "<crate dir> <lines>" for every crate, with the files listed by
# `$1` and read by `$2` (each given one path).
tally() {
    local list=$1 read=$2 file
    $list | grep -E '^crates/[^/]+/src/.*\.rs$' | grep -v '/target/' | while read -r file; do
        printf '%s %s\n' "$(cut -d/ -f2 <<<"$file")" "$($read "$file" | count)"
    done | awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }' | sort
}

tree_files() { git ls-files --cached --others --exclude-standard -- crates; }
tree_read() { cat "$1" 2>/dev/null || true; }
rev_files() { git ls-tree -r --name-only "$rev" -- crates; }
rev_read() { git show "$rev:$1"; }

if [ -z "$rev" ]; then
    tally tree_files tree_read | awk '
        { printf "%-10s %7d\n", $1, $2; total += $2 }
        END { printf "%-10s %7d\n", "total", total }'
    exit 0
fi

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "lines.sh: unknown revision '$rev'" >&2
    exit 2
}
join -a1 -a2 -e0 -o 0,1.2,2.2 <(tally rev_files rev_read) <(tally tree_files tree_read) | awk -v rev="$rev" '
    BEGIN { printf "%-10s %7s %7s %7s\n", "crate", rev, "tree", "change" }
    { printf "%-10s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-10s %7d %7d %+7d\n", "total", a, b, b - a }'
