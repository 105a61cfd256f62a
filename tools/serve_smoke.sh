#!/usr/bin/env bash
# End-to-end smoke test of the deployed serving binaries.
#
# First checks that out-of-range thread counts are refused with exit 2.
# Then starts treediff_serve on ephemeral ports with stdin at EOF, drives every
# serving verb through treediff_client (ping, diff, open, replicated open,
# commit, vdiff, status, metrics), then sends SIGTERM and requires a clean
# exit 0. A repeated diff must be a matching-cache hit that serves the
# first answer's bytes. The status check pins the REPL lines: one for each
# durable group, none for the in-memory store. A second server then starts
# on the same store directory: reopening the durable stores must recover
# them (old versions diff, commits continue, a different base is refused),
# and a non-adjacent vdiff of the replicated store reads both versions
# from the store rather than from the commit log.
# A diff of two documents nested 40,000 deep must get an error answer,
# and the server must still answer ping after it.
# Any non-OK response, non-zero exit or missing output fails the script.
# Because stdin is /dev/null the whole run also proves that EOF on stdin
# does not stop the server.
#
# Usage: tools/serve_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

build="${1:-build}"
serve="$build/tools/treediff_serve"
client="$build/tools/treediff_client"
work="$(mktemp -d)"
server_pid=""

cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill -KILL "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  [[ -f "$work/serve.err" ]] && sed 's/^/  serve: /' "$work/serve.err" >&2
  exit 1
}

# start_server: launches treediff_serve on $work and sets $port.
start_server() {
  : >"$work/serve.err"
  "$serve" --port 0 --metrics-port 0 --store-dir "$work" \
    </dev/null 2>"$work/serve.err" &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening on [^:]*:\([0-9]*\) .*/\1/p' \
      "$work/serve.err")"
    [[ -n "$port" ]] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server exited before listening"
    sleep 0.1
  done
  [[ -n "$port" ]] || fail "server did not report its port"
}

# stop_server: SIGTERM, then requires a clean exit 0.
stop_server() {
  kill -0 "$server_pid" 2>/dev/null || fail "server stopped early"
  kill -TERM "$server_pid"
  local status=0
  wait "$server_pid" || status=$?
  server_pid=""
  [[ "$status" -eq 0 ]] || fail "server exit status $status after SIGTERM"
}

# refuse_threads FLAG VALUE: the server must exit 2 with the usage text.
# Each run is bounded by `timeout 5`, and no value above 257 is ever
# passed: a binary that accepted the value would start that many threads.
refuse_threads() {
  local status=0
  timeout 5 "$serve" "$1" "$2" </dev/null 2>"$work/flag.err" || status=$?
  [[ "$status" -eq 2 ]] || fail "$1 $2: exit status $status (want 2)"
  grep -q '^usage: treediff_serve ' "$work/flag.err" ||
    fail "$1 $2: no usage text in: $(cat "$work/flag.err")"
}
refuse_threads --threads 0
refuse_threads --threads -1
refuse_threads --threads 257
refuse_threads --net-threads 257

start_server

# expect NAME REGEX ARGS...: runs the client with ARGS; requires exit 0
# and an output line matching REGEX.
expect() {
  local name="$1" regex="$2" out
  shift 2
  out="$("$client" --port "$port" "$@")" || fail "$name: client exit non-zero"
  grep -q -- "$regex" <<<"$out" || fail "$name: no /$regex/ in: $out"
}

# reject NAME REGEX ARGS...: like expect, but no output line may match.
reject() {
  local name="$1" regex="$2" out
  shift 2
  out="$("$client" --port "$port" "$@")" || fail "$name: client exit non-zero"
  if grep -q -- "$regex" <<<"$out"; then
    fail "$name: unexpected /$regex/ in: $out"
  fi
}

old='(D (P (S "alpha beta gamma")))'
new='(D (P (S "alpha beta delta")) (P (S "epsilon")))'

expect ping '^PONG$' ping
# diff_flags FILE: the hex flags of a saved diff answer's first line.
diff_flags() { sed -n '1s/.* flags=0x\([0-9a-f]*\)$/\1/p' "$1"; }
ops_of() { sed -n '1s/^\(ops=[0-9]*\) .*/\1/p' "$1"; }

# The same diff twice: the first answer is computed, the second is a
# matching-cache hit (kRespFlagMatchCache, 0x10) with the first answer's op
# count and script bytes.
"$client" --port "$port" diff sexpr "$old" "$new" >"$work/diff.first" ||
  fail "diff: client exit non-zero"
grep -q '^ops=[1-9]' "$work/diff.first" ||
  fail "diff: no /^ops=[1-9]/ in: $(cat "$work/diff.first")"
flags="$(diff_flags "$work/diff.first")"
[[ -n "$flags" ]] && ! ((0x$flags & 0x10)) ||
  fail "diff: first answer flags 0x$flags (want no match-cache bit)"
"$client" --port "$port" diff sexpr "$old" "$new" >"$work/diff.hit" ||
  fail "diff-hit: client exit non-zero"
flags="$(diff_flags "$work/diff.hit")"
[[ -n "$flags" ]] && ((0x$flags & 0x10)) ||
  fail "diff-hit: flags 0x$flags lack the match-cache bit"
[[ "$(ops_of "$work/diff.hit")" == "$(ops_of "$work/diff.first")" ]] ||
  fail "diff-hit: op count differs from the first answer"
cmp -s <(tail -n +2 "$work/diff.first") <(tail -n +2 "$work/diff.hit") ||
  fail "diff-hit: script bytes differ from the first answer"

expect open '^OK version=0$' open doc sexpr "$old"
expect commit '^OK version=1$' commit doc sexpr "$new"
expect vdiff '^ops=[1-9]' vdiff doc 0 1
expect open-replicated '^OK version=0$' open --replicas 2 rdoc sexpr "$old"
expect commit-replicated '^OK version=1$' commit rdoc sexpr "$new"
expect open-solo '^OK version=0$' open --replicas 1 sdoc sexpr "$old"
expect status '^store=doc versions=2 ' status
reject status-in-memory '^REPL doc=doc ' status
expect status-repl '^REPL doc=rdoc epoch=' status
expect status-solo '^REPL doc=sdoc epoch=0 primary=0 r0=primary:lag=0$' status
expect metrics '^# TYPE net_frames_total counter$' metrics

# A bad doc id is refused, and the client reports it with a non-zero exit.
if "$client" --port "$port" open --replicas 1 ../x sexpr "$old" \
  2>/dev/null; then
  fail "unsafe doc id accepted"
fi

# One diff of two 40,000-level documents (120 KB each) is refused, not a
# crash: the parser bounds nesting, and the server keeps answering.
deep="$(printf '%40000s' '' | sed 's/ /(a/g')$(printf '%40000s' '' | tr ' ' ')')"
if "$client" --port "$port" diff sexpr "$deep" "$deep" \
  >/dev/null 2>"$work/deep.err"; then
  fail "deep: a 40,000-level document was accepted"
fi
grep -q 'ResourceExhausted' "$work/deep.err" ||
  fail "deep: no ResourceExhausted in: $(cat "$work/deep.err")"
expect ping-after-deep '^PONG$' ping

stop_server
first_port="$port"

# Restart on the same store directory: the durable stores come back.
start_server
expect reopen-replicated '^OK version=1$' open --replicas 2 rdoc sexpr "$old"
expect reopen-vdiff '^ops=[1-9]' vdiff rdoc 0 1
expect recommit-replicated '^OK version=2$' commit rdoc sexpr "$old"
# Version 2 re-commits the base text, and versions 0 and 2 are not
# adjacent, so the store materializes both and the diff is empty.
expect vdiff-replicated '^ops=0 ' vdiff rdoc 0 2
if "$client" --port "$port" open --replicas 1 sdoc sexpr "$new" \
  2>/dev/null; then
  fail "reopen with a different base accepted"
fi
expect reopen-solo '^OK version=0$' open --replicas 1 sdoc sexpr "$old"
expect status-reopened '^store=rdoc versions=3 ' status
stop_server
echo "serve_smoke: OK (ports $first_port, $port)"
