#!/bin/sh
# Usage: cli_serve_sigkill_replay.sh <omn_design>
#
# An event `omn_design serve` has acknowledged survives a SIGKILL.  A
# journaled session takes a mixed event stream, is killed with -9 after
# its seventh ack, and a second process resumes from the journal.  The
# resumed session must replay all seven events, land on the design digest
# a fresh unjournaled session reaches from the same stream (which must
# differ from the initial digest, so the check is not vacuous), keep
# serving, and quit cleanly.  The stream adds a reflector and removes two
# (one of them the added one, which carries traffic): every one of those
# redesigns must ack warm=1, so the basis remapped across node events is
# what the journal replays.
set -eu
omn_design=$1
dir=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then kill -9 "$pid" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "$1" >&2
  for out in "$dir"/*.out; do
    [ -f "$out" ] && { echo "== $out" >&2; cat "$out" >&2; }
  done
  exit 1
}

# The digest field of the first output line that matches $2 in file $1.
digest_of() {
  sed -n "/$2/{s/.* digest=\([0-9a-f]*\).*/\1/p;q;}" "$1"
}

"$omn_design" generate --sinks 12 --seed 7 --out "$dir/inst.txt" >/dev/null
events='node-add reflX 30 12 1 0.5 0.02
edge-fail rd refl3 edge2
capacity-set refl1 3
edge-fail sr src0 refl4
node-remove refl6
node-remove reflX
edge-restore rd refl3 edge2'

# Session A: journaled, fed through a fifo that stays open so the daemon
# never sees end of input; killed once the seventh ack is out.
mkfifo "$dir/in"
"$omn_design" serve --instance "$dir/inst.txt" --journal "$dir/journal" \
  --warm-start < "$dir/in" > "$dir/killed.out" &
pid=$!
exec 3>"$dir/in"
printf '%s\n' "$events" >&3
polls=0
until grep -q '^ok 7 ' "$dir/killed.out"; do
  kill -0 "$pid" 2>/dev/null || fail "serve exited before acking event 7"
  ! grep -qv '^ok ' "$dir/killed.out" || fail "serve rejected a line"
  polls=$((polls + 1))
  [ "$polls" -le 600 ] || fail "serve did not ack event 7 within 60 s"
  sleep 0.1
done
kill -9 "$pid"
status=0
wait "$pid" || status=$?
pid=
exec 3>&-
[ "$status" -eq 137 ] || fail "killed serve exited with $status, not 137"
[ "$(grep -c '^ok [0-9]* node-[a-z]* .* warm=1 ' "$dir/killed.out")" -eq 3 ] \
  || fail "a node event's redesign did not start warm"

# Session B resumes from the journal.
status=0
printf 'query\nquit\n' | "$omn_design" serve --instance "$dir/inst.txt" \
  --journal "$dir/journal" --warm-start > "$dir/resumed.out" || status=$?
[ "$status" -eq 0 ] || fail "resumed serve exited with $status"
grep -q '^ok [0-9]* ready .* replayed=7 ' "$dir/resumed.out" \
  || fail "resume did not replay all 7 journaled events"
tail -n 1 "$dir/resumed.out" | grep -qx 'ok 7 bye' \
  || fail "resumed session did not end with 'ok 7 bye'"

# Reference: a fresh unjournaled session on the same stream.
{ printf '%s\n' "$events"; printf 'query\nquit\n'; } \
  | "$omn_design" serve --instance "$dir/inst.txt" --warm-start \
  > "$dir/reference.out"
initial=$(digest_of "$dir/reference.out" ' ready ')
want=$(digest_of "$dir/reference.out" ' design ')
resumed=$(digest_of "$dir/resumed.out" ' ready ')
got=$(digest_of "$dir/resumed.out" ' design ')
echo "initial=$initial want=$want resumed=$resumed got=$got"
[ -n "$want" ] && [ "$resumed" = "$want" ] && [ "$got" = "$want" ] \
  || fail "replayed design digest diverged from the reference"
[ "$want" != "$initial" ] \
  || fail "the event stream did not change the design (vacuous check)"
