#!/usr/bin/env bash
# CI gate: formatting, release build, full test suite, lint-clean clippy.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# The examples drive `customize` end to end on live guests and read its
# report; each returns a customize error from `main`, so an error or a
# panic in any of them exits non-zero and fails the gate.
for example in quickstart webdav_lockdown redis_cve_shield init_shedding brop_surface temporal_seccomp; do
    cargo run --release -q --example "$example" > /dev/null
done

# Transactional-customize error paths: the fault-injection hooks only
# exist behind the feature gate, so the rollback suites need their own run.
cargo test -q -p dynacut-vm -p dynacut-criu -p dynacut --features fault-injection
cargo clippy -p dynacut-vm -p dynacut-criu -p dynacut --features fault-injection --all-targets -- -D warnings

# Trace-pipeline boundary suite and flight-recorder suites: covered by
# the workspace run above, but named here so a regression in either
# fails with its own line in the log.
cargo test -q -p dynacut-trace --test boundaries
# A drcov header whose module count exceeds the lines present (up to
# usize::MAX, which sized an allocation and panicked) is Malformed.
cargo test -q -p dynacut-trace --test boundaries parse_rejects_a_module_count
cargo test -q -p dynacut-vm events::
cargo test -q -p dynacut-bench flight
cargo clippy -p dynacut-vm -p dynacut-trace -p dynacut-bench --all-targets -- -D warnings

# The machine-readable flight report: `figures flight` regenerates
# results/flight.json and panics if the document violates the
# dynacut-flight-v1 schema (keys, phases, durations-sum-to-total).
cargo run --release -q -p dynacut-bench --bin figures -- flight > /dev/null
test -s results/flight.json
grep -q '"schema": "dynacut-flight-v1"' results/flight.json

# Staged fleet engine + page store: the fleet suite asserts >4x dedup,
# flat per-process freeze windows, serialized stage journals, and
# serving-during-cycle; `figures fleet` regenerates results/fleet.json
# and panics unless dedup_ratio >= 1.0 and every process's phase
# durations sum to its cycle total (the dynacut-fleet-v1 schema gate).
cargo test -q -p dynacut-bench fleet
cargo test -q -p dynacut-criu --test page_store
cargo clippy -p dynacut -p dynacut-criu --all-targets -- -D warnings
cargo run --release -q -p dynacut-bench --bin figures -- fleet > /dev/null
test -s results/fleet.json
grep -q '"schema": "dynacut-fleet-v1"' results/fleet.json

# Superblock-chaining block cache keyed by entry pc (DESIGN §11): the vm
# suite pins rewrite-precise invalidation (self-modifying code, which a
# running block revalidates after any write to a code page,
# host-planted traps fired mid-superblock, unmap/protect), fingerprint
# parity with the uncached interpreter, which empties the soft TLB
# before every instruction, the TLB's revocations as a running guest
# sees them (a sweep, a host install of a frame another process maps,
# protect, a page written after it was executed), two queued signals
# delivered one instruction apart, and hot-entry survival under
# capacity eviction. A block runs by reference out of the cache, each
# instruction executed inline, and settles its budget, retired count and
# clock once, when it exits: for every slice length from 1 to 64 a cached
# and an uncached kernel run a loop with a load, a store, taken and
# not-taken branches, a syscall and a handled fault in lockstep and agree
# after every slice. Each instruction is checked only for what its class
# can change: the code-stamp gate runs after a store (st, push, call,
# callr, the complete list; one self-modifying guest each, whose stack
# ones keep the stack pointer inside the code page, must agree with the
# uncached kernel and execute the new bytes) and the pc guard after a
# jcc; the process is looked up once per run of blocks, again only
# after a syscall. The events unit run pins that every flight-recorder
# counter, each in a fixed slot keyed by events::Counter, reads and
# lists by name as the saturating map it replaced did (a proptest
# against that map). A dispatch, and a running block after a store, skip a block's
# revalidation while its space reads the code stamp the block last
# validated under; a stamp names one space's generation table, so a
# cache put next to another space with an equal count of code writes
# still fires a trap planted under it. The bcache unit run pins the
# pc-keyed cache: a carried entry's first valid dispatch is one version
# swap, a carry takes only the entries that ran since the last one and
# seeds the pages they span, and a carried entry over a changed page is
# stale. The core suites pin trap visibility across a full customize
# cycle with a hot cache (a trap on the lower page of a carried two-page
# superblock fires on the loop's next pass, so a carry that leaves that
# page unseeded fails), the commit whose carried entries swap in without
# a re-decode and the rollback that re-dispatches without re-decoding.
# The syscall_args, robustness and serve_deadline suites pin the typed
# syscall ABI (DESIGN §15): fd/pid truncation, wild lengths, a read
# EFAULT that keeps its source's bytes, fd/pid counters that stop at
# u32::MAX (EMFILE/EAGAIN) instead of wrapping, every random call's
# error a known Errno, and no deadline overshoot. `figures interp`
# regenerates results/interp.json and panics unless MIPS > 0,
# superblocked >= uncached, speedup >= 2x over uncached, superblocks
# were promoted, the commit version-swapped (swaps > 0, warm-hit ratio
# > 0), retirement counts are identical and fingerprints match (the
# dynacut-interp-v3 schema gate).
# The soft TLB (DESIGN §5): the mem unit run holds the property that a
# space using the table and one that empties it before every access
# agree on every access, page, dirty bit and code generation, that the
# table never holds a right the slow path would refuse, that the slab
# slot an entry holds is always its page's (a slot freed and handed to
# another page, a page a host write populates under an entry filled
# while it was empty), that an access leaves its page's slot in the
# table for the next one to hit, and that the code stamp moves exactly
# when a page's generation does.
cargo test -q -p dynacut-vm --lib mem::
cargo test -q -p dynacut-vm --lib bcache::
cargo test -q -p dynacut-vm --test block_cache
cargo test -q -p dynacut-vm --test syscall_args
cargo test -q -p dynacut-vm --test robustness
cargo test -q -p dynacut-vm --test serve_deadline
cargo test -q -p dynacut --test cache_trap_visibility
cargo test -q -p dynacut --test version_swap
# A customize commit carries only the entries that ran since the last
# carry and seeds only the pages they decode from: over forty toggles of
# one redis process the cache and the registered code pages stay flat,
# and the criu unit run pins that every page a carried entry spans is
# seeded (an unseeded page reads generation 0, which a carried snapshot
# of 0 would validate against rewritten bytes).
cargo test -q -p dynacut --test carried_state
cargo test -q -p dynacut-bench interp
cargo run --release -q -p dynacut-bench --bin figures -- interp > /dev/null
test -s results/interp.json
grep -q '"schema": "dynacut-interp-v3"' results/interp.json
grep -q '"fingerprints_match": true' results/interp.json
! grep -q '"superblocks": 0,' results/interp.json
! grep -q '"version_swaps": 0,' results/interp.json
! grep -q '"warm_hit_ratio": 0.0000' results/interp.json

# Zero-copy CoW restore (DESIGN §12): the criu battery proptests
# put_full/restore-via-frames/CoW/release interleavings for exact
# refcounts and byte-identity with a model of the checkpoint put, and
# checks that re-dumping a restored process reproduces what the store
# materializes and shares the entry's frame for every page the guest
# has not written; the core suite pins the per-cycle byte accounting and
# the same round trip after every customize; `figures restore`
# regenerates results/restore.json and panics unless the copy baseline
# (the cycle's stored page bytes) is >= 5x the bytes the zero-copy
# restore copied at 8 replicas, no run leaked a page ref, and
# zero-copy cost stays flat from 2 to 8 replicas (the
# dynacut-restore-v2 gate — all deterministic byte counts).
# Checkpoint store entries are flat: put_full is the only way pages
# enter the store, every entry is the image on the store's own frames
# plus the key of each page it holds a ref on, and reads no other, so
# releasing an earlier entry leaves every later one intact (zero_copy).
# put_full hashes each distinct frame of an image once, however many
# pages it backs, and still takes one ref per page: the criu unit run
# pins the hash count and the unwind of every ref on a collision, and
# the page_store and zero_copy proptests put images whose pages share
# frame handles, within the image and with a live entry's frames.
# An image's pages are one map from base to frame; the codec suite
# (codec_props) pins that from_bytes refuses a pagemap.img + pages.img
# pair that disagrees with itself (entries out of order, repeated or
# unaligned, or a payload that is not one page per entry) with
# BadImage, and that an image edit never writes a frame another
# handle can see; the incremental suite pins that a stored checkpoint
# materializes to exactly the dump that was put, that each later
# checkpoint adds only its dirtied pages to the bytes physically held,
# and ids that are sequential, never reused and fail cleanly once
# released; restore_accounting pins that each customize cycle interns
# its checkpoint once. The root incremental suite holds the dirty-bitmap
# property: every page that changed between two checkpoints is dirty,
# for guest writes, drops, remaps and page replacements whose undo
# lands after a sweep.
cargo test -q -p dynacut-criu --lib
# Restoring an untrusted checkpoint never panics the host: a checkpoint
# of one process or two with bytes overwritten, cut short, or with a run
# of 1-16 bytes inserted or deleted each decodes, stores, restores and
# runs to Ok or a typed error, and an unaligned module base, one in the
# top page and a retired count next to u64::MAX are pinned one by one.
cargo test -q -p dynacut-criu --test restore_fuzz
# One wire layer for both binary formats (DESIGN §5): the reader checks
# every length and table count against the bytes left before it
# allocates and refuses trailing bytes (codec_props pins a checkpoint
# with bytes appended as BadImage), and the byte counter gives the
# length the encoder writes.
cargo test -q -p dynacut-obj --lib wire::
# The DCO codec reads every table bounded, refuses trailing bytes and
# matches its golden encoding; a binary whose sections overlap or run
# past the top of the address space is refused with BadImage by
# from_bytes and by materialize, never a panic: whatever from_bytes
# accepts, even with bytes inserted, materialize maps to Ok or a typed
# error.
cargo test -q -p dynacut-obj
# One symbol resolver (DESIGN §12), dynacut_obj::resolve, for spawn and
# every link against a process image: library injection, the restore's
# link and the original text take the first definition in load order,
# and a restore links only text it must rebuild, so a fully dumped
# image restores when an import no longer resolves and a stock-CRIU one
# fails with UnresolvedSymbol. At spawn, an import whose address runs
# past the top of the address space is a MissingImport, and a library
# holding such a symbol that nothing imports still spawns.
cargo test -q -p dynacut-vm --test robustness spawn_
# A module's symbol_addr is None for a symbol past the top of the
# address space, where the unchecked sum panicked a debug build.
cargo test -q -p dynacut-vm --test robustness symbol_addr_
cargo test -q -p dynacut --test symbol_resolution
cargo test -q -p dynacut-criu --test zero_copy
cargo test -q -p dynacut-criu --test codec_props
cargo test -q -p dynacut-criu --test incremental
cargo test -q --test incremental
cargo test -q -p dynacut --test restore_accounting
cargo test -q -p dynacut-bench experiments::restore
cargo run --release -q -p dynacut-bench --bin figures -- restore > /dev/null
test -s results/restore.json
grep -q '"schema": "dynacut-restore-v2"' results/restore.json
grep -q '"refcount_leaked_bytes": 0' results/restore.json

# Canary-then-fleet rollout (DESIGN §13): the core suite pins
# promote/demote end to end (one dump per rollout, zero-copy
# promotion, clock-masked fingerprint parity on demotion, verifier
# reports read through the session's journal cursor with every other
# guest event left in place, one stored entry after two rollouts, and
# every stage bracket of a rollout and of a fleet run, promotion
# windows included, nesting the same way). It also pins that a promotion takes
# only the canary's code changes: a promoted replica resumes its own
# syscall (no EBADF spin) and keeps its session's data, a self-healed
# replica still takes the next rollout, a trap the canary healed is
# cleared on every replica, a foreign replica fails its window with a
# typed error and the canary is demoted with fingerprint parity, a
# replica frozen inside its handler keeps its library, an unwind leaves
# a replica inside the new library's handler promoted instead of
# unmapping the library under it, journalling a PromotionKept event
# with its pid, and a rollout rejects UnmapPages;
# the fault battery adds the CanarySoak /
# PromoteRestore phases and the synthetic mid-soak report, each with
# fleet-wide parity + no leaked page refs + retry-promotes. The page
# store's collision/unknown-key typed errors ride the page_store and
# criu unit runs above. `figures rollout` regenerates
# results/rollout.json and panics unless the whole fleet paid exactly
# one ProcessDumped, the promotion wave copied zero page bytes, a
# CanaryPromoted was journalled, and the demotion round-trip restored
# the clock-masked fingerprint (the dynacut-rollout-v1 schema gate).
cargo test -q -p dynacut --test rollout
# A verifier report the flight journal evicted before the soak read it
# still demotes the canary: the soak decides on the verifier.reports
# count, and only the report's address is lost.
cargo test -q -p dynacut --test rollout a_report_the_journal_evicted_still_demotes_the_canary
# A plan naming a block or a redirect past the top of the address space
# is a typed error (the plan refuses a block whose end overflows, the
# image edit one that overflows once the module base is added) and
# leaves no process frozen, where the unchecked sums panicked a debug
# build after the dump and wrapped in a release build. So is a block or
# a redirect outside its module's text (a block at libc's offset from
# nginx's base, under disable, enable and init removal, and a redirect
# just past the text), refused before any image is edited, where the
# stray block wiped libc's first bytes and the cycle committed.
cargo test -q -p dynacut --test dynacut_e2e failed_customize_thaws_and_leaves_server_untouched
# One live handler library per process (DESIGN §7): forty Redirect
# toggles and ten Verify rollouts each leave every process at its two
# boot modules plus one library, and a cycle that freezes a process
# inside its SIGTRAP handler keeps the library the handler runs in.
cargo test -q -p dynacut --test handler_library
cargo test -q -p dynacut --features fault-injection --test fault_injection
cargo test -q -p dynacut-bench rollout
cargo run --release -q -p dynacut-bench --bin figures -- rollout > /dev/null
test -s results/rollout.json
grep -q '"schema": "dynacut-rollout-v1"' results/rollout.json
grep -q '"promotion_copied_bytes": 0' results/rollout.json
grep -q '"process_dumps": 1' results/rollout.json
grep -q '"demotion_fingerprints_match": true' results/rollout.json

# Preemptive MLFQ scheduler (DESIGN §14): the vm suite pins the
# starvation bound (every runnable progresses within two boost
# windows), zero quanta burned by blocked guests, wake lists never
# waking the wrong pid, golden single-process fingerprints, the
# regression that run_until_event finds its marker by seq cursor after
# the flight journal wraps, and the named pump tunable. `figures sched`
# regenerates results/sched.json and panics unless the MLFQ serving p99
# (guest time) stays within 2x from the 100- to the 1000-replica fleet
# and MLFQ wakeups stay flat across sizes (the dynacut-sched-v2 schema
# gate).
cargo test -q -p dynacut-vm --test sched
# One scheduling record per process (DESIGN §14): level, queue
# membership, class and trap counter live on the Process. A forked child
# starts at level 0, Normal, under trap_hits.none whatever its parent's
# record holds; a removed process leaves the queues with its level
# reset, so re-inserting it queues it once, at level 0; and a restore
# swap gives the replacement the original's class and trap counter
# (an undo gives them back), as the pid-keyed maps it replaced did.
cargo test -q -p dynacut-vm --lib kernel::tests::forked_child_starts_normal_at_level_zero_under_trap_hits_none
cargo test -q -p dynacut-vm --lib kernel::tests::removed_and_reinserted_process_starts_at_level_zero_queued_once
cargo test -q -p dynacut-criu --lib restore::tests::restore_swap_keeps_class_and_trap_counter
cargo test -q -p dynacut-vm --lib sched::
cargo test -q -p dynacut-bench experiments::sched
cargo run --release -q -p dynacut-bench --bin figures -- sched > /dev/null
test -s results/sched.json
grep -q '"schema": "dynacut-sched-v2"' results/sched.json
grep -q '"fleet_size": 1000' results/sched.json

# The host-wall benchmark (perfbench/, run by BENCHMARK.json) is a
# separate cargo package that calls only the crates' public API: it must
# still build and pass its own unit tests. The build rewrites
# perfbench/Cargo.lock (it still lists a removed stub); restore it with
# `git checkout perfbench/Cargo.lock` before committing.
CARGO_TARGET_DIR=.bench_build cargo build --release -q --offline --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Smoke run of the benchmark on the customize-cycle workload. A traced
# run fails its `correct` flag unless the deterministic counts (criu
# bytes per op, modules per process, ...) repeat across episodes, so
# this gates the dump and restore-prepare path end to end in seconds.
# Every process maps its 2 boot modules plus 1 live handler library,
# so a library that outlives its cycle fails the modules gate.
bench_result=$(CARGO_TARGET_DIR=.bench_build python3 perfbench/run.py --workload toggle --seed 7 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct": true' <<< "$bench_result"
grep -q '"failed": 0,' <<< "$bench_result"
grep -q '"core.modules_per_proc": {"value": 3,' <<< "$bench_result"
# The same on the rollout workload, the one that reaches the baseline
# store and the zero-copy promotion; the run also counts a failed op
# whenever a promotion is not clean or copies a page byte. A promoted
# replica resumes its own syscall instead of the canary's, so a request
# costs about what it does on `serve` (~650 guest instructions); a
# replica replaying the canary's syscall spins and pushes it past 7,000.
bench_result=$(CARGO_TARGET_DIR=.bench_build python3 perfbench/run.py --workload rollout --seed 7 --seconds 1 --trace 1 | tail -n 1)
grep -q '"correct": true' <<< "$bench_result"
grep -q '"failed": 0,' <<< "$bench_result"
grep -q '"core.modules_per_proc": {"value": 3,' <<< "$bench_result"
python3 -c 'import json, sys; insns = json.loads(sys.argv[1])["metrics"]["vm.insns_per_req"]["value"]; sys.exit(0 if insns < 1000 else f"vm.insns_per_req {insns} >= 1000")' "$bench_result"

# API docs must build warning-free.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
