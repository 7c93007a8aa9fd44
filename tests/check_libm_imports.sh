#!/bin/sh
# Fails when any object named on the command line imports libm's log, exp,
# sin, cos or sincos (with or without a symbol-version suffix). The
# lane-kernel, waveform and draw objects use mathx's own transcendentals,
# so their results cannot depend on the host's libm. Exits 77 (skip) where
# nm is not available.
#
#   check_libm_imports.sh OBJECT...
if ! command -v nm >/dev/null 2>&1; then
  echo "SKIP: nm not found"
  exit 77
fi
status=0
for obj in "$@"; do
  if ! syms=$(nm -u "$obj"); then
    echo "FAIL: nm could not read $obj"
    status=1
    continue
  fi
  bad=$(printf '%s\n' "$syms" | awk '{ print $NF }' |
        grep -E '^(log|exp|sin|cos|sincos)(@.*)?$')
  if [ -n "$bad" ]; then
    echo "FAIL: $obj imports" $bad
    status=1
  else
    echo "ok: $obj"
  fi
done
exit $status
