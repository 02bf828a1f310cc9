#!/usr/bin/env bash
# check_context.sh — the context-discipline CI gate.
#
# Production code must thread the caller's context, never mint its own:
# a context.Background() buried inside internal/ silently detaches that
# subtree from request deadlines and cancellation, which is exactly the
# bug class the request-scoped execution refactor removed. This gate
# forbids context.Background() and context.TODO() everywhere except:
#
#   - cmd/        — process entry points own the root context
#   - examples/   — standalone programs, same reason
#   - perfbench/  — the benchmark's main package, a process entry point
#     like cmd/: its run root and its fleet's shutdown timeout
#   - *_test.go   — tests are their own callers
#   - internal/serve/server.go — the HTTP server boundary: the signal-
#     driven root context and the detached shutdown-grace context are
#     the two legitimate roots inside internal/
#
# Detached *execution* (the singleflight running a tune past its
# initiator's cancellation) uses context.WithoutCancel(ctx), which keeps
# the caller's values while shedding its cancellation — that is the
# sanctioned escape hatch and is not flagged here.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r hit; do
  file="${hit%%:*}"
  case "$file" in
  cmd/* | examples/* | perfbench/* | *_test.go | internal/serve/server.go) continue ;;
  esac
  echo "CONTEXT ROOT IN LIBRARY CODE: $hit" >&2
  fail=1
done < <(grep -rn --include='*.go' -E 'context\.(Background|TODO)\(\)' . | sed 's|^\./||')

if [ "$fail" -ne 0 ]; then
  echo "context check failed: thread the caller's ctx instead of minting a root" >&2
  echo "(context.WithoutCancel(ctx) is the sanctioned way to detach execution)" >&2
  exit 1
fi
echo "context check passed: no context roots outside cmd/, examples/, perfbench/, tests, and the server boundary"
