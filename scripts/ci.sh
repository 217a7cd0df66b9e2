#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and lints, all offline
# (dependencies are vendored path crates under compat/). Run from the
# repository root: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test =="
cargo test -q --offline

echo "== cargo clippy =="
cargo clippy --workspace --offline -- -D warnings

echo "== forced-backend crypto matrix =="
# The whole crypto + core suite must pass under every forced AES backend
# so non-AES-NI hosts still exercise the dispatch and fallback paths.
# The same variable pins the SHA-256 engine: scalar and table force the
# portable compression function, aesni uses SHA-NI where CPUID has it.
# The aesni pass is skipped gracefully when CPUID says unsupported
# (--detect exits 1), matching the runtime fallback.
backends="scalar table"
if ./target/release/crypto_throughput --detect; then
  backends="$backends aesni"
else
  echo "(CPU lacks AES-NI; skipping forced-aesni pass)"
fi
for backend in $backends; do
  echo "-- PE_CRYPTO_FORCE_BACKEND=$backend --"
  PE_CRYPTO_FORCE_BACKEND="$backend" cargo test -q --offline -p pe-crypto -p pe-core
done

echo "== crypto_throughput smoke =="
# The crypto benchmark must complete and emit valid JSON (tiny sizes,
# one rep — this checks the harness, not the numbers). Every row must
# carry its aes_backend label, and the fallback backends (scalar, table)
# must always be present.
smoke_out="$(mktemp)"
trap 'rm -f "$smoke_out"' EXIT
./target/release/crypto_throughput --smoke --out "$smoke_out"
python3 - "$smoke_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["rows"]
assert report["bench"] == "crypto_throughput" and rows, "malformed smoke report"
assert isinstance(report["aesni_supported"], bool), "missing aesni_supported"
seen = set()
for row in rows:
    assert row["fast_encrypt_s"] > 0 and row["fast_decrypt_s"] > 0, row
    assert row["fast_serialize_s"] > 0 and row["fast_open_s"] > 0, row
    assert row["aes_backend"] in {"scalar", "table", "aesni"}, row
    seen.add(row["aes_backend"])
assert {"scalar", "table"} <= seen, f"fallback rows missing: {seen}"
if report["aesni_supported"]:
    assert "aesni" in seen, "aesni supported but no aesni rows"
cipher = {row["aes_backend"]: row for row in report["cipher_rows"]}
assert "table" in cipher, "missing table cipher row"
for row in cipher.values():
    assert row["encrypt_mib_s"] > 0 and row["decrypt_mib_s"] > 0, row
if report["aesni_supported"]:
    # The hardware acceptance bar: AES-NI must beat the T-table engine
    # by >= 5x at the block-cipher layer (it lands ~30x on real silicon;
    # the margin absorbs noisy CI machines).
    ratio = (cipher["aesni"]["encrypt_mib_s"] + cipher["aesni"]["decrypt_mib_s"]) \
        / (cipher["table"]["encrypt_mib_s"] + cipher["table"]["decrypt_mib_s"])
    assert ratio >= 5.0, f"aesni only {ratio:.1f}x over table"
    print(f"aesni cipher speedup vs table: {ratio:.1f}x")
engines = {row["engine"]: row for row in report["sha256_rows"]}
assert "portable" in engines, f"missing portable sha256 row: {sorted(engines)}"
for row in engines.values():
    assert row["mib_s"] > 0, row
print(f"smoke report OK ({len(rows)} rows, backends: {sorted(seen)})")
PY

echo "== net_load smoke (mem + durable sharded store) =="
# The network load bench must complete over real loopback sockets with
# zero unrecovered errors and emit valid JSON. --store adds a second
# sweep over a durable sharded WAL store, so the report must carry both
# mem and sharded-log rows.
net_out="$(mktemp)"
net_store="$(mktemp -d)"
trap 'rm -f "$smoke_out" "$net_out"; rm -rf "$net_store"' EXIT
./target/release/net_load --smoke --store "$net_store" --shards 4 --out "$net_out"
python3 - "$net_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["rows"]
assert report["bench"] == "net_load" and rows, "malformed net_load report"
for row in rows:
    for field in ("store", "clients", "requests", "wall_s", "rps", "p50_ns",
                  "p99_ns", "retries", "errors", "failed_sessions"):
        assert field in row, f"missing {field}: {row}"
    assert row["errors"] == 0 and row["failed_sessions"] == 0, row
    assert row["requests"] > 0 and row["p99_ns"] >= row["p50_ns"] > 0, row
stores = {row["store"] for row in rows}
assert "mem" in stores, f"mem rows missing: {stores}"
assert any(s.startswith("sharded-log") for s in stores), f"durable rows missing: {stores}"
print(f"net_load report OK ({len(rows)} rows, stores: {sorted(stores)})")
PY

echo "== collab_load smoke (live fan-out over a durable store) =="
# The live-collaboration bench must complete over real sockets with
# byte-for-byte convergence, zero unrecovered errors, and valid JSON.
collab_out="$(mktemp)"
collab_store="$(mktemp -d)"
trap 'rm -f "$smoke_out" "$net_out" "$collab_out"; rm -rf "$net_store" "$collab_store"' EXIT
./target/release/collab_load --smoke --store "$collab_store" --out "$collab_out"
python3 - "$collab_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["rows"]
assert report["bench"] == "collab_load" and rows, "malformed collab report"
for row in rows:
    assert row["errors"] == 0, f"unrecovered session errors: {row}"
    assert row["converged"] is True, f"editors diverged: {row}"
    assert row["saves"] > 0 and row["deliveries"] > 0, row
print(f"collab_load report OK ({len(rows)} rows)")
PY

echo "== store_recovery smoke =="
# The durable-store bench must complete and emit valid JSON covering
# both sweeps (append throughput per fsync policy, replay vs log size).
store_out="$(mktemp)"
trap 'rm -f "$smoke_out" "$net_out" "$collab_out" "$store_out"; rm -rf "$net_store" "$collab_store"' EXIT
./target/release/store_recovery --smoke --out "$store_out"
python3 - "$store_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "store_recovery", "malformed store report"
appends, replays = report["append_rows"], report["replay_rows"]
groups, sharded = report["group_commit_rows"], report["sharded_replay_rows"]
assert appends and replays and groups and sharded, "empty store report"
policies = {row["policy"] for row in appends}
assert {"always", "never"} <= policies, policies
for row in appends:
    assert row["appends_per_s"] > 0 and row["records"] > 0, row
for row in replays:
    assert row["replay_per_s"] > 0 and row["log_bytes"] > 0, row
for row in groups:
    # Under fsync=always every append either led a group fsync or rode
    # a neighbour's batch — the counters must account for all of them.
    assert row["fsyncs"] + row["fsyncs_saved"] == row["records"], row
    assert row["writers"] > 0 and row["shards"] > 0 and row["max_batch"] >= 1, row
for row in sharded:
    assert row["replay_per_s"] > 0 and row["docs"] == row["records"], row
assert {row["shards"] for row in sharded} != {1}, "sharded sweep must cover multi-shard stores"
print(f"store report OK ({len(appends)} append, {len(groups)} group-commit, "
      f"{len(replays)} replay, {len(sharded)} sharded-replay rows)")
PY

echo "== tenant_bench smoke =="
# The multi-tenant key bench must complete and emit valid JSON: wrap and
# unwrap rows, grant/revoke rows whose stored bodies never changed, and
# a recovery row. Flatness is asserted loosely here (noisy CI hosts);
# the committed full run is held to the tight bar below.
tenant_out="$(mktemp)"
trap 'rm -f "$smoke_out" "$net_out" "$collab_out" "$store_out" "$tenant_out"; rm -rf "$net_store" "$collab_store"' EXIT
./target/release/tenant_bench --smoke --out "$tenant_out"
python3 - "$tenant_out" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "tenant_bench", "malformed tenant report"
wraps, grants, recs = report["wrap_rows"], report["grant_rows"], report["recovery_rows"]
assert wraps and grants and recs, "empty tenant report"
ops = {row["op"] for row in wraps}
assert "wrap" in ops and "unwrap" in ops, ops
for row in wraps:
    assert row["mean_ns"] > 0 and row["reps"] > 0, row
for row in grants:
    assert row["body_unchanged"] is True, f"membership change touched a body: {row}"
    assert row["grant_us"] > 0 and row["accept_us"] > 0 and row["revoke_us"] > 0, row
sizes = [row["body_bytes"] for row in grants]
assert max(sizes) >= 64 * min(sizes), f"size sweep too narrow: {sizes}"
lo, hi = min(r["grant_us"] for r in grants), max(r["grant_us"] for r in grants)
assert hi <= 10 * lo, f"grant cost grew with body size: {lo:.1f}..{hi:.1f} us"
for row in recs:
    assert row["users"] > 0 and row["docs"] > 0 and row["grants"] == row["docs"], row
print(f"tenant report OK ({len(grants)} sizes, grant {lo:.1f}..{hi:.1f} us)")
PY

echo "== pedit offline store smoke (no server) =="
# Offline commands open the same sharded store directory that serve
# does: after create/save/show the store must carry its manifest, pass
# fsck, and hold no plaintext in any of its bytes. A regular file at the
# store path is not a store and must be refused.
offline_store="$(mktemp -u)"
offline_file="$(mktemp)"
trap 'rm -f "$smoke_out" "$net_out" "$collab_out" "$store_out" "$tenant_out" "$offline_file"; rm -rf "$net_store" "$collab_store" "$offline_store"' EXIT
offline() { ./target/release/pedit --store "$offline_store" "$@"; }
odoc="$(offline create --password off-pw | sed 's/^created //')"
offline save --doc "$odoc" --password off-pw --text "offline disk secret"
oshown="$(offline show --doc "$odoc" --password off-pw)"
[ "$oshown" = "offline disk secret" ] || { echo "bad offline decrypt: $oshown" >&2; exit 1; }
[ -f "$offline_store/pe-shards" ] || { echo "offline store has no shard manifest" >&2; exit 1; }
./target/release/pedit fsck "$offline_store" | grep -q "store healthy" \
  || { echo "fsck failed on the offline store" >&2; exit 1; }
if grep -r -a -q "secret" "$offline_store"; then
  echo "plaintext leaked to the offline store" >&2; exit 1
fi
if ./target/release/pedit --store "$offline_file" list >/dev/null 2>&1; then
  echo "a regular file opened as a store" >&2; exit 1
fi
rm -rf "$offline_store" "$offline_file"
echo "offline store OK ($odoc)"

echo "== pedit serve smoke (sharded store) =="
# Serve a sharded store on an ephemeral port, run a mediated edit over
# the real socket, check the decrypted result and that the wire store
# holds only ciphertext, then stop the server cleanly. --shards 4 is
# explicit: the default is the core count, which is 1 on small runners.
serve_store="$(mktemp -u)"
serve_addr="$(mktemp -u)"
pedit() { ./target/release/pedit "$@"; }
# Spawn the binary directly (not via the function) so $! is the server
# itself — the crash drill's kill -9 must hit the real process, not a
# wrapper subshell.
./target/release/pedit --store "$serve_store" serve --addr 127.0.0.1:0 \
  --addr-file "$serve_addr" --shards 4 &
serve_pid=$!
cleanup_serve() {
  kill "$serve_pid" 2>/dev/null || true
  rm -f "$smoke_out" "$net_out" "$collab_out" "$store_out" "$tenant_out" "$serve_addr"
  rm -rf "$serve_store" "$net_store" "$collab_store"
}
trap cleanup_serve EXIT
for _ in $(seq 1 100); do
  [ -s "$serve_addr" ] && break
  sleep 0.1
done
[ -s "$serve_addr" ] || { echo "serve never wrote its address" >&2; exit 1; }
addr="$(cat "$serve_addr")"
doc="$(pedit --connect "$addr" create --password ci-pw | sed 's/^created //')"
pedit --connect "$addr" save --doc "$doc" --password ci-pw --text "ci wire secret"
shown="$(pedit --connect "$addr" show --doc "$doc" --password ci-pw)"
[ "$shown" = "ci wire secret" ] || { echo "bad decrypt over the wire: $shown" >&2; exit 1; }
raw="$(pedit --connect "$addr" raw --doc "$doc")"
case "$raw" in *secret*) echo "plaintext leaked to the provider" >&2; exit 1;; esac

echo "== high-concurrency smoke (256 clients vs live serve) =="
# 256 concurrent mediated editors against the same live pedit serve.
# net_load exits nonzero on any unrecovered error or failed session,
# so success here means every one of the 256 keep-alive connections was
# held open and served by the event loop simultaneously.
./target/release/net_load --connect "$addr" --clients 256 --edits 1
stats="$(pedit --connect "$addr" stats --format json)"
case "$stats" in
  *net.server.conns_open*) ;;
  *) echo "live stats missing server gauge: $stats" >&2; exit 1;;
esac

echo "== live collaboration drill (two editors, change-stream push) =="
# Two concurrent `edit --live` sessions on one encrypted document, each
# holding a change-stream subscription and rebasing the other's pushed
# changes between ops. Both must exit zero and the merged document must
# contain every editor's contribution; `watch` then reads the stream
# head over its own dedicated subscription.
ldoc="$(pedit --connect "$addr" create --password live-pw | sed 's/^created //')"
pedit --connect "$addr" save --doc "$ldoc" --password live-pw --text "base"
pedit --connect "$addr" edit --live --doc "$ldoc" --password live-pw \
  --editor drill-a --ops "a: from-a1,a: from-a2" --rounds 4 --wait-ms 200 >/dev/null &
live_a=$!
pedit --connect "$addr" edit --live --doc "$ldoc" --password live-pw \
  --editor drill-b --ops "a: from-b1,a: from-b2" --rounds 4 --wait-ms 200 >/dev/null &
live_b=$!
wait "$live_a" || { echo "live editor A failed" >&2; exit 1; }
wait "$live_b" || { echo "live editor B failed" >&2; exit 1; }
merged="$(pedit --connect "$addr" show --doc "$ldoc" --password live-pw)"
for token in from-a1 from-a2 from-b1 from-b2; do
  case "$merged" in
    *"$token"*) ;;
    *) echo "live merge lost $token: $merged" >&2; exit 1;;
  esac
done
pedit --connect "$addr" watch --doc "$ldoc" --password live-pw --rounds 1 --wait-ms 100 \
  | grep -q "watched 1 round" || { echo "watch failed on the live doc" >&2; exit 1; }
lraw="$(pedit --connect "$addr" raw --doc "$ldoc")"
case "$lraw" in *from-a1*|*from-b1*) echo "live plaintext leaked to the provider" >&2; exit 1;; esac

echo "== crash-recovery drill (sharded) =="
# SIGKILL the running sharded server mid-flight: every save it
# acknowledged must be on disk, fsck must walk every shard and call the
# store healthy, and a restarted server must pick up exactly where the
# dead one left off.
pedit --connect "$addr" save --doc "$doc" --password ci-pw --text "acked then killed"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
[ -f "$serve_store/pe-shards" ] || { echo "serve did not create a sharded layout" >&2; exit 1; }
recovered="$(pedit --store "$serve_store" show --doc "$doc" --password ci-pw)"
[ "$recovered" = "acked then killed" ] || { echo "acknowledged save lost: $recovered" >&2; exit 1; }
fsck_out="$(pedit fsck "$serve_store")"
echo "$fsck_out" | grep -q "store healthy" || { echo "fsck failed after kill" >&2; exit 1; }
echo "$fsck_out" | grep -q "\[shard-003\]" || { echo "fsck did not walk every shard" >&2; exit 1; }
pedit compact "$serve_store" >/dev/null
pedit fsck "$serve_store" | grep -q "store healthy" || { echo "fsck failed after compact" >&2; exit 1; }
rm -f "$serve_addr"
./target/release/pedit --store "$serve_store" serve --addr 127.0.0.1:0 --addr-file "$serve_addr" &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$serve_addr" ] && break
  sleep 0.1
done
[ -s "$serve_addr" ] || { echo "restarted serve never wrote its address" >&2; exit 1; }
addr="$(cat "$serve_addr")"
survived="$(pedit --connect "$addr" show --doc "$doc" --password ci-pw)"
[ "$survived" = "acked then killed" ] || { echo "restart lost the save: $survived" >&2; exit 1; }
# The collaboratively merged document must ride out the kill -9 too:
# every accepted live save was WAL-durable before its ack.
live_survived="$(pedit --connect "$addr" show --doc "$ldoc" --password live-pw)"
[ "$live_survived" = "$merged" ] \
  || { echo "kill -9 lost the merged live doc: $live_survived" >&2; exit 1; }

echo "== multi-tenant drill (live serve) =="
# Two users against the restarted server: alice creates a document under
# a wrapped per-document key, bob can read only between grant and
# revoke, and the provider-side ciphertext is byte-identical across both
# membership changes — grant/revoke are wrapped-key-record operations,
# never a re-encryption.
tpedit() { pedit --connect "$addr" --kdf-iters 64 "$@"; }
tpedit user register --name drill-alice --passphrase apw
tpedit user register --name drill-bob --passphrase bpw
tdoc="$(tpedit create --user drill-alice --passphrase apw | sed 's/^created //')"
tpedit save --doc "$tdoc" --user drill-alice --passphrase apw --text "tenant wire secret"
if tpedit show --doc "$tdoc" --user drill-bob --passphrase bpw >/dev/null 2>&1; then
  echo "unauthorized tenant read did not fail closed" >&2; exit 1
fi
traw="$(pedit --connect "$addr" raw --doc "$tdoc")"
case "$traw" in *secret*) echo "tenant plaintext leaked to the provider" >&2; exit 1;; esac
# The invite code is the last line of the grant output.
invite="$(tpedit grant --doc "$tdoc" --user drill-alice --passphrase apw --to drill-bob | tail -n 1)"
[ "$(pedit --connect "$addr" raw --doc "$tdoc")" = "$traw" ] \
  || { echo "grant re-encrypted the body" >&2; exit 1; }
tpedit accept --doc "$tdoc" --user drill-bob --passphrase bpw --invite "$invite"
bobread="$(tpedit show --doc "$tdoc" --user drill-bob --passphrase bpw)"
[ "$bobread" = "tenant wire secret" ] || { echo "granted tenant read failed: $bobread" >&2; exit 1; }
tpedit insert --doc "$tdoc" --user drill-bob --passphrase bpw --at 0 --text "shared: " >/dev/null
traw="$(pedit --connect "$addr" raw --doc "$tdoc")"
tpedit revoke --doc "$tdoc" --user drill-alice --passphrase apw --to drill-bob >/dev/null
[ "$(pedit --connect "$addr" raw --doc "$tdoc")" = "$traw" ] \
  || { echo "revoke re-encrypted the body" >&2; exit 1; }
if tpedit show --doc "$tdoc" --user drill-bob --passphrase bpw >/dev/null 2>&1; then
  echo "revoked tenant read did not fail closed" >&2; exit 1
fi
aliceread="$(tpedit show --doc "$tdoc" --user drill-alice --passphrase apw)"
[ "$aliceread" = "shared: tenant wire secret" ] \
  || { echo "owner read broken after revoke: $aliceread" >&2; exit 1; }
echo "tenant drill OK ($tdoc shared and revoked with zero re-encryption)"

pedit --connect "$addr" stop
wait "$serve_pid"
echo "serve + crash drill OK ($doc survived kill -9 and restart)"

echo "== committed benchmark reports =="
# The checked-in BENCH_*.json files must match the schema the current
# binaries emit — a bench schema change without regenerated reports is
# a CI failure, not a silent drift.
python3 - <<'PY'
import json
with open("BENCH_store.json") as f:
    store = json.load(f)
assert store["bench"] == "store_recovery"
for key in ("append_rows", "group_commit_rows", "replay_rows", "sharded_replay_rows"):
    assert store[key], f"BENCH_store.json missing {key}"
single = next(r for r in store["append_rows"] if r["policy"] == "always")
best = max(r["appends_per_s"] for r in store["group_commit_rows"]
           if r["policy"] == "always" and r["writers"] >= 8)
assert best >= 5 * single["appends_per_s"], \
    f"group commit {best:.0f}/s < 5x single-writer {single['appends_per_s']:.0f}/s"
with open("BENCH_net.json") as f:
    net = json.load(f)
assert net["bench"] == "net_load"
stores = {row["store"] for row in net["rows"]}
assert "mem" in stores and any(s.startswith("sharded-log") for s in stores), stores
assert all(row["errors"] == 0 and row["failed_sessions"] == 0 for row in net["rows"])
with open("BENCH_collab.json") as f:
    collab = json.load(f)
assert collab["bench"] == "collab_load"
crows = collab["rows"]
assert crows and {r["editors"] for r in crows} >= {2, 8, 32}, \
    f"committed collab sweep must cover K=2,8,32: {[r['editors'] for r in crows]}"
for row in crows:
    assert row["errors"] == 0, f"unrecovered collab errors: {row}"
    assert row["converged"] is True, f"collab editors diverged: {row}"
    assert row["saves"] > 0 and row["deliveries"] > 0 and row["doc_bytes"] > 0, row
    assert row["push_p99_ns"] > 0 and row["poll_p50_ns"] > 0, row
    # The change-stream claim: pushed delivery beats the poll interval
    # even at the p99, at every fan-out level.
    assert row["push_p99_ns"] < row["poll_interval_ms"] * 1_000_000, \
        f"push p99 {row['push_p99_ns']}ns >= {row['poll_interval_ms']}ms poll interval: {row}"
with open("BENCH_tenant.json") as f:
    tenant = json.load(f)
assert tenant["bench"] == "tenant_bench"
grants = tenant["grant_rows"]
assert grants and all(r["body_unchanged"] for r in grants), "a membership change touched a body"
sizes = [r["body_bytes"] for r in grants]
assert min(sizes) <= 1024 and max(sizes) >= 1024 * 1024, \
    f"committed sweep must span 1 KiB..1 MiB: {sizes}"
# The paper-level claim: grant/revoke cost is independent of document
# size. Over a 1024x size range the committed numbers must stay within
# a small constant factor.
for field in ("grant_us", "revoke_us"):
    lo = min(r[field] for r in grants)
    hi = max(r[field] for r in grants)
    assert hi <= 5 * lo, f"{field} not flat across sizes: {lo:.1f}..{hi:.1f} us"
rec = tenant["recovery_rows"][0]
assert rec["users"] >= 10_000 and rec["docs"] >= 10_000, rec
assert rec["reopen_wall_s"] < 5.0, f"directory recovery too slow: {rec}"
print(f"committed reports OK (group commit {best / single['appends_per_s']:.1f}x "
      f"over single-writer fsync=always; tenant grant flat over "
      f"{max(sizes) // min(sizes)}x body sizes)")
PY

echo "CI OK"
