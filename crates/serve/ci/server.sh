#!/usr/bin/env bash
# One background revel_serve for the steps of a CI job (or a local run of them).
#
#   server.sh start <port> [VAR=value...] -- <revel_serve args...>
#   server.sh stop [<grep -E pattern server.log must match>]
#
# `start` returns once the port accepts connections (10 s bound). `stop` sends
# SIGTERM and asserts a graceful drain: exit status 0 within 10 s, then — with a
# pattern — that the log (the shutdown tally is its last lines) matches it.
# Steps are separate shells, so the state is files: ./server.{pid,log,exit}.
set -euo pipefail
bin=${REVEL_SERVE_BIN:-./target/release/revel_serve}

case "${1:-}" in
start)
  port=$2
  shift 2
  envs=()
  while [ "$1" != "--" ]; do
    envs+=("$1")
    shift
  done
  shift
  rm -f server.exit
  # `env` execs the server, so $! is the server's own pid. The wrapper records
  # the exit status because `stop` runs in another shell, where `wait` cannot
  # reach the pid.
  (
    env ${envs[@]+"${envs[@]}"} "$bin" --port "$port" "$@" 2>server.log &
    echo $! >server.pid
    wait $! && echo 0 >server.exit || echo $? >server.exit
  ) &
  for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then exit 0; fi
    sleep 0.2
  done
  echo "server never started listening on port $port" >&2
  cat server.log >&2
  exit 1
  ;;
stop)
  kill -TERM "$(cat server.pid)"
  for _ in $(seq 1 100); do
    [ -s server.exit ] && break
    sleep 0.1
  done
  cat server.log >&2
  [ -s server.exit ] || { echo "server still alive 10s after SIGTERM" >&2; exit 1; }
  echo "server exit status: $(cat server.exit)"
  [ "$(cat server.exit)" = "0" ]
  if [ -n "${2:-}" ]; then grep -Eq "$2" server.log; fi
  ;;
*)
  echo "usage: server.sh start <port> [VAR=value...] -- <server args...> | stop [<pattern>]" >&2
  exit 2
  ;;
esac
