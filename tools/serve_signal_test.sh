#!/usr/bin/env bash
# Graceful-drain contract for `fairco2 serve`: SIGTERM mid-run must
# (1) finish the in-flight tick and seal the WAL tail, (2) exit 130,
# and (3) leave a log that --recover completes into the signature an
# uninterrupted run publishes. Driven by ctest (label: durability).
#
# Usage: serve_signal_test.sh <fairco2_binary> <work_dir>
set -u

bin="$1"
work="$2"

rm -rf "$work"
mkdir -p "$work"
cd "$work"

# Sized so the run takes a couple of seconds: the signal always
# lands mid-run, never after completion. Scrub is off — it has its
# own coverage, and this test is about the drain.
args=(serve --tenants 1000 --duration-periods 4000 --window 8
      --wal-segment-records 64 --scrub-periods 0)

signature_of() {
    sed -n 's/.*signature \([0-9a-f]*\).*/\1/p' "$1"
}

"$bin" "${args[@]}" --wal-dir wal >interrupted.log 2>&1 &
pid=$!
# Wait for the first sealed segment, then send the drain signal.
for _ in $(seq 1 200); do
    [ -e wal/wal-000001.seg ] && break
    sleep 0.05
done
if ! [ -e wal/wal-000001.seg ]; then
    echo "FAIL: no sealed wal segment appeared within 10s"
    kill -KILL "$pid" 2>/dev/null
    exit 1
fi
kill -TERM "$pid"
wait "$pid"
rc=$?
if [ "$rc" -ne 130 ]; then
    echo "FAIL: expected exit 130 after SIGTERM, got $rc"
    cat interrupted.log
    exit 1
fi
if ! grep -q "interrupted by signal" interrupted.log; then
    echo "FAIL: missing drain note in interrupted run"
    cat interrupted.log
    exit 1
fi
# The drain sealed the tail: nothing `.open` may remain.
if ls wal/*.open >/dev/null 2>&1; then
    echo "FAIL: drain left an unsealed wal tail"
    ls wal
    exit 1
fi

"$bin" "${args[@]}" --wal-dir wal --recover >recovered.log 2>&1
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: recover expected exit 0, got $rc"
    cat recovered.log
    exit 1
fi
if ! grep -q "replayed" recovered.log; then
    echo "FAIL: recover did not report replayed records"
    cat recovered.log
    exit 1
fi

"$bin" "${args[@]}" >plain.log 2>&1
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: uninterrupted run expected exit 0, got $rc"
    cat plain.log
    exit 1
fi

got=$(signature_of recovered.log)
want=$(signature_of plain.log)
if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "FAIL: recovered signature '$got' != uninterrupted '$want'"
    exit 1
fi

echo "PASS: SIGTERM -> 130 -> sealed tail -> recover is identical"
