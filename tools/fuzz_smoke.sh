#!/usr/bin/env bash
# Fuzz-smoke driver for CI: runs a fixed-seed libFuzzer burst on every
# harness in FUZZ_TARGETS and fails LOUDLY when the set on disk
# diverges from the list below in either direction:
#
#   - a listed binary is missing  -> the build dropped a fuzzer (the
#     old inline `for f in build/tests/fuzz_*` glob silently skipped
#     it and the job stayed green)
#   - an unlisted fuzz_* binary exists -> someone added an entry to
#     tests/CMakeLists.txt without registering it here, so CI would
#     never build or run it via --targets
#
# The list below is the single source of truth for the CI job: the
# build step compiles `fuzz_smoke.sh --targets` and the run step
# executes this script, so drift against tests/CMakeLists.txt's
# SALUS_FUZZ_ENTRIES surfaces as one of the two loud failures above.
#
# Usage:
#   fuzz_smoke.sh [DIR]       smoke-run every fuzzer in DIR
#                             (default build/tests); FUZZ_SECONDS
#                             overrides the 30 s per-target budget
#   fuzz_smoke.sh --targets   print the target list (for the CI
#                             `cmake --build --target` step)
#   fuzz_smoke.sh --self-test verify both failure modes actually fail
#                             using a hermetic dir of stub binaries
set -euo pipefail

FUZZ_TARGETS=(
    fuzz_bitstream_file
    fuzz_encrypted_bitstream
    fuzz_quote
    fuzz_journal
    fuzz_netlist
    fuzz_channel_open
    fuzz_migration_ticket
    fuzz_scenario_file
    fuzz_dma_descriptor
    fuzz_dma_window
    fuzz_aes_backend
    fuzz_sha_backend
)

check_inventory() {
    local dir=$1 bad=0 name t listed
    for t in "${FUZZ_TARGETS[@]}"; do
        if [ ! -x "$dir/$t" ]; then
            echo "fuzz-smoke: MISSING fuzzer binary: $dir/$t" >&2
            bad=1
        fi
    done
    shopt -s nullglob
    for f in "$dir"/fuzz_*; do
        [ -x "$f" ] || continue
        name=${f##*/}
        listed=0
        for t in "${FUZZ_TARGETS[@]}"; do
            if [ "$name" = "$t" ]; then listed=1; fi
        done
        if [ "$listed" = 0 ]; then
            echo "fuzz-smoke: UNLISTED fuzzer binary: $f" \
                 "(add it to FUZZ_TARGETS in tools/fuzz_smoke.sh)" >&2
            bad=1
        fi
    done
    shopt -u nullglob
    return "$bad"
}

run_smoke() {
    local dir=$1 secs=${FUZZ_SECONDS:-30} t
    check_inventory "$dir" || return 1
    for t in "${FUZZ_TARGETS[@]}"; do
        echo "=== $dir/$t"
        "$dir/$t" -seed=1 -max_total_time="$secs" -print_final_stats=1
    done
}

make_stub() {
    printf '#!/bin/sh\nexit 0\n' > "$1"
    chmod +x "$1"
}

SELF_TEST_DIR=""

self_test() {
    SELF_TEST_DIR=$(mktemp -d)
    trap 'rm -rf "$SELF_TEST_DIR"' EXIT
    local tmp=$SELF_TEST_DIR
    local t
    for t in "${FUZZ_TARGETS[@]}"; do
        make_stub "$tmp/$t"
    done

    echo "self-test 1/3: complete stub set must pass"
    if ! run_smoke "$tmp" > /dev/null; then
        echo "self-test FAILED: complete set was rejected" >&2
        return 1
    fi

    echo "self-test 2/3: deleting ${FUZZ_TARGETS[0]} must fail"
    rm "$tmp/${FUZZ_TARGETS[0]}"
    if run_smoke "$tmp" > /dev/null 2>&1; then
        echo "self-test FAILED: missing binary was not detected" >&2
        return 1
    fi
    make_stub "$tmp/${FUZZ_TARGETS[0]}"

    echo "self-test 3/3: an unlisted fuzz_bogus binary must fail"
    make_stub "$tmp/fuzz_bogus"
    if run_smoke "$tmp" > /dev/null 2>&1; then
        echo "self-test FAILED: unlisted binary was not detected" >&2
        return 1
    fi

    echo "fuzz-smoke self-test OK"
}

case "${1:-}" in
--targets)
    echo "${FUZZ_TARGETS[*]}"
    ;;
--self-test)
    self_test
    ;;
--help | -h)
    sed -n '2,22p' "$0"
    ;;
*)
    run_smoke "${1:-build/tests}"
    ;;
esac
