#!/usr/bin/env bash
# Non-test line count: for every Rust source file, the lines before its
# first `#[cfg(test)]` (the whole file when it has none), summed per
# tree. Run from the repository root: `tools/loc.sh`.
set -euo pipefail

count() {
    find "$@" -name '*.rs' -print0 \
        | xargs -0 awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test { n++ }
            END { print n + 0 }'
}

echo "crates/*/src: $(count crates/*/src)"
echo "perfbench/src: $(count perfbench/src)"
