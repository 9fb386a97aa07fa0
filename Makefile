DUNE ?= dune
# Every target that runs funcy depends on `build`, so the smokes run the
# built binary itself: concurrent `dune exec` calls (a daemon and its
# client) race on dune's build lock.
FUNCY = _build/default/bin/funcy.exe

SMOKES = smoke smoke-faults smoke-trace smoke-procs smoke-shard \
         smoke-selfcheck smoke-adaptive smoke-serve smoke-recover

.PHONY: all build test smokes $(SMOKES) golden perf-gate coverage check clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# Determinism smoke: the same tune run at --jobs 4 must produce output
# byte-identical to --jobs 1 (see DESIGN.md section 8).
smoke: build
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 1 > _build/smoke-j1.out
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 4 > _build/smoke-j4.out
	cmp _build/smoke-j1.out _build/smoke-j4.out
	@echo "smoke OK: --jobs 4 output bit-identical to --jobs 1"

# Fault-layer smoke (see DESIGN.md section 9):
#   1. an armed fault model keeps --jobs 4 byte-identical to --jobs 1;
#   2. a run killed mid-search by --die-after resumes from its checkpoint
#      to output byte-identical to an uninterrupted run;
#   3. two concurrent runs (seeds 1 and 2) sharing one checkpoint log
#      each print what they print alone, and a third seed-1 run resumes
#      from the shared log without building anything.
smoke-faults: build
	$(FUNCY) tune -b swim -a cfr -k 120 --faults --fault-seed 7 --jobs 1 \
	  > _build/smoke-faults-j1.out
	$(FUNCY) tune -b swim -a cfr -k 120 --faults --fault-seed 7 --jobs 4 \
	  > _build/smoke-faults-j4.out
	cmp _build/smoke-faults-j1.out _build/smoke-faults-j4.out
	rm -f _build/smoke-faults.log _build/smoke-faults.log.lock
	$(FUNCY) tune -b swim -a cfr -k 120 --faults --fault-seed 7 \
	  --checkpoint _build/smoke-faults.log --die-after 60 \
	  > /dev/null 2>/dev/null; test $$? -eq 99
	$(FUNCY) tune -b swim -a cfr -k 120 --faults --fault-seed 7 \
	  --checkpoint _build/smoke-faults.log > _build/smoke-faults-resumed.out
	cmp _build/smoke-faults-resumed.out _build/smoke-faults-j1.out
	rm -f _build/smoke-faults.log _build/smoke-faults.log.lock
	rm -f _build/smoke-shared.log _build/smoke-shared.log.lock
	$(FUNCY) tune -b swim -a cfr -k 120 --seed 1 > _build/smoke-shared-solo1.out
	$(FUNCY) tune -b swim -a cfr -k 120 --seed 2 > _build/smoke-shared-solo2.out
	$(FUNCY) tune -b swim -a cfr -k 120 --seed 1 \
	  --checkpoint _build/smoke-shared.log > _build/smoke-shared-1.out & \
	  pid=$$!; \
	  $(FUNCY) tune -b swim -a cfr -k 120 --seed 2 \
	    --checkpoint _build/smoke-shared.log > _build/smoke-shared-2.out \
	    || { wait $$pid; exit 1; }; \
	  wait $$pid
	cmp _build/smoke-shared-1.out _build/smoke-shared-solo1.out
	cmp _build/smoke-shared-2.out _build/smoke-shared-solo2.out
	$(FUNCY) tune -b swim -a cfr -k 120 --seed 1 --stats \
	  --checkpoint _build/smoke-shared.log 2>/dev/null \
	  | grep -Eq '^  builds +0$$'
	rm -f _build/smoke-shared.log _build/smoke-shared.log.lock
	@echo "smoke-faults OK: fault schedule jobs-independent, kill-and-resume bit-identical, shared log consistent"

# Tracing smoke (see DESIGN.md section 10):
#   1. a logical-clock trace of the same tune is byte-identical at
#      --jobs 1 and --jobs 4 (schedule-independent observability);
#   2. funcy report is a pure function of the trace file: rendering the
#      same trace twice produces identical bytes.
smoke-trace: build
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 1 \
	  --trace _build/smoke-trace-j1.jsonl --trace-clock logical > /dev/null
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 4 \
	  --trace _build/smoke-trace-j4.jsonl --trace-clock logical > /dev/null
	cmp _build/smoke-trace-j1.jsonl _build/smoke-trace-j4.jsonl
	$(FUNCY) report _build/smoke-trace-j1.jsonl > _build/smoke-trace-report1.out
	$(FUNCY) report _build/smoke-trace-j1.jsonl > _build/smoke-trace-report2.out
	cmp _build/smoke-trace-report1.out _build/smoke-trace-report2.out
	@echo "smoke-trace OK: logical trace bytes jobs-independent, report reproducible"

# Process-backend smoke (see DESIGN.md section 11):
#   1. --backend processes --jobs 4 tune output AND its logical trace are
#      byte-identical to --backend domains --jobs 1;
#   2. they stay byte-identical when a worker is SIGKILLed mid-search
#      (--kill-workers-after): the crashed job is retried bit-identically;
#   3. the same holds at K=600 under the fault model, where chunk deltas
#      carry faults, chunks hold up to 37 jobs (600 / (4 * 4 workers)) and
#      the kill at job 400 lands past the first two chunks (about 240
#      jobs) that every worker is fed;
#   4. `experiment faults` builds each rate's engine from the run's flags:
#      its table on a killed processes pool is byte-identical to
#      --jobs 1's, and its --stats counts the crashed workers.
smoke-procs: build
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 1 \
	  --trace _build/smoke-procs-d.jsonl --trace-clock logical \
	  > _build/smoke-procs-d.out
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 4 --backend processes \
	  --trace _build/smoke-procs-p.jsonl --trace-clock logical \
	  > _build/smoke-procs-p.out
	cmp _build/smoke-procs-d.out _build/smoke-procs-p.out
	cmp _build/smoke-procs-d.jsonl _build/smoke-procs-p.jsonl
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 4 --backend processes \
	  --kill-workers-after 3 \
	  --trace _build/smoke-procs-k.jsonl --trace-clock logical \
	  > _build/smoke-procs-k.out
	cmp _build/smoke-procs-d.out _build/smoke-procs-k.out
	cmp _build/smoke-procs-d.jsonl _build/smoke-procs-k.jsonl
	$(FUNCY) tune -b swim -a cfr -k 600 --faults --fault-seed 7 --jobs 1 \
	  --trace _build/smoke-procs-fd.jsonl --trace-clock logical \
	  > _build/smoke-procs-fd.out
	$(FUNCY) tune -b swim -a cfr -k 600 --faults --fault-seed 7 --jobs 4 \
	  --backend processes --kill-workers-after 400 \
	  --trace _build/smoke-procs-fk.jsonl --trace-clock logical \
	  > _build/smoke-procs-fk.out
	cmp _build/smoke-procs-fd.out _build/smoke-procs-fk.out
	cmp _build/smoke-procs-fd.jsonl _build/smoke-procs-fk.jsonl
	$(FUNCY) experiment faults -k 30 --jobs 1 > _build/smoke-procs-xd.out
	$(FUNCY) experiment faults -k 30 --jobs 4 --backend processes \
	  --kill-workers-after 3 --stats > _build/smoke-procs-xk-stats.out
	sed '/^engine telemetry:/,$$d' _build/smoke-procs-xk-stats.out \
	  | sed '$$d' > _build/smoke-procs-xk.out
	cmp _build/smoke-procs-xd.out _build/smoke-procs-xk.out
	grep -Eq '^  workers +[1-9][0-9]* crashed' _build/smoke-procs-xk-stats.out
	@echo "smoke-procs OK: processes backend byte-identical to domains, even under worker kills"

# Sharded-backend smoke (see DESIGN.md section 11):
#   1. --backend sharded --nodes 4 tune output AND its logical trace are
#      byte-identical to --backend domains --jobs 4 (itself already
#      checked against --jobs 1 by `smoke`);
#   2. they stay byte-identical when the worker running each batch's
#      job 3 is SIGKILLed mid-search (--kill-workers-after): its
#      unanswered chunks return to the cursor and the job it was running
#      retries bit-identically.
smoke-shard: build
	$(FUNCY) tune -b swim -a cfr -k 120 --jobs 4 \
	  --trace _build/smoke-shard-d.jsonl --trace-clock logical \
	  > _build/smoke-shard-d.out
	$(FUNCY) tune -b swim -a cfr -k 120 --backend sharded --nodes 4 \
	  --trace _build/smoke-shard-s.jsonl --trace-clock logical \
	  > _build/smoke-shard-s.out
	cmp _build/smoke-shard-d.out _build/smoke-shard-s.out
	cmp _build/smoke-shard-d.jsonl _build/smoke-shard-s.jsonl
	$(FUNCY) tune -b swim -a cfr -k 120 --backend sharded --nodes 4 \
	  --kill-workers-after 3 \
	  --trace _build/smoke-shard-k.jsonl --trace-clock logical \
	  > _build/smoke-shard-k.out
	cmp _build/smoke-shard-d.out _build/smoke-shard-k.out
	cmp _build/smoke-shard-d.jsonl _build/smoke-shard-k.jsonl
	@echo "smoke-shard OK: sharded backend byte-identical to domains, even under worker kills"

# Checkpoint/resume equivalence oracle (see DESIGN.md section 12): for
# each algorithm, run uninterrupted, then kill-and-resume at several
# evaluation boundaries, and require byte-identical results, caches,
# quarantines and normalized logical traces — on both backends, with the
# fault model armed on the processes leg.  Then the served oracle
# (section 14) on fr alone, killed only where it acknowledges the first
# of its two requests, as -a and --kill-at ask.
smoke-selfcheck: build
	$(FUNCY) selfcheck -b swim -k 60 --jobs 2
	$(FUNCY) selfcheck -b swim -k 60 --jobs 4 --backend processes \
	  --faults --fault-seed 7
	$(FUNCY) selfcheck --serve -b swim -k 40 -a fr --kill-at 1 \
	  > _build/smoke-selfcheck-serve.out
	grep -q '^  kill at ack 1 ' _build/smoke-selfcheck-serve.out
	! grep -q 'kill at ack 2' _build/smoke-selfcheck-serve.out
	@echo "smoke-selfcheck OK: kill-and-resume equivalent to uninterrupted runs"

# Adaptive-allocation smoke (see DESIGN.md section 15):
#   1. adaptive-sh output AND its logical trace (including the rung
#      open/close/promote/eliminate events) are byte-identical at
#      --jobs 1 and --jobs 4;
#   2. quality-vs-budget: at a quarter of CFR's measurement budget,
#      adaptive-sh lands within 2% of CFR's best time (speedups compare
#      as sh >= cfr / 1.02, same thing via T_O3/best);
#   3. the checkpoint/resume equivalence oracle passes for adaptive-sh.
smoke-adaptive: build
	$(FUNCY) tune -b swim -a adaptive-sh -k 120 --jobs 1 \
	  --trace _build/smoke-adaptive-j1.jsonl --trace-clock logical \
	  > _build/smoke-adaptive-j1.out
	$(FUNCY) tune -b swim -a adaptive-sh -k 120 --jobs 4 \
	  --trace _build/smoke-adaptive-j4.jsonl --trace-clock logical \
	  > _build/smoke-adaptive-j4.out
	cmp _build/smoke-adaptive-j1.out _build/smoke-adaptive-j4.out
	cmp _build/smoke-adaptive-j1.jsonl _build/smoke-adaptive-j4.jsonl
	grep -q rung_open _build/smoke-adaptive-j1.jsonl
	grep -q arm_elim _build/smoke-adaptive-j1.jsonl
	$(FUNCY) tune -b swim -a cfr -k 120 > _build/smoke-adaptive-cfr.out
	sh=`awk '/^CFR-SH: speedup/ {print $$3}' _build/smoke-adaptive-j1.out`; \
	  cfr=`awk '/^CFR: speedup/ {print $$3}' _build/smoke-adaptive-cfr.out`; \
	  awk -v sh=$$sh -v cfr=$$cfr 'BEGIN { \
	    printf "adaptive-sh speedup %s vs CFR %s\n", sh, cfr; \
	    exit !(sh + 0 >= cfr / 1.02) }'
	$(FUNCY) selfcheck -b swim -k 60 --jobs 2 -a adaptive-sh
	@echo "smoke-adaptive OK: quarter-budget quality held, traces jobs-independent, resume equivalent"

# Tuning-service smoke (see DESIGN.md section 13):
#   1. a daemon comes up and a served result is byte-identical to the
#      result block of a solo `funcy tune` with the same spec;
#   2. a request whose deadline lapses mid-search cancels that search:
#      the same spec sent again without a deadline is searched afresh,
#      its bytes equal the solo `funcy tune` result block, and the
#      daemon's stats count one cancelled group;
#   3. a zipfian loadgen burst completes with zero protocol errors and
#      zero byte divergence (loadgen exits 1 otherwise);
#   4. a protocol shutdown drains the daemon cleanly (exit 0), and
#      `funcy report` renders the server section from its trace;
#   5. a second --jobs 2 daemon, whose pool keeps a parked helper domain
#      between searches, serves one search and drains on SIGTERM (exit 0
#      within 10 s).  One shell line, so `$!` and `wait` see its pid;
#   6. that daemon runs each search on its own --state-dir engine, and its
#      --stats builds/runs/cache lines equal the counters `funcy report`
#      re-counts from its trace.
smoke-serve: build
	rm -f _build/smoke-serve.sock
	$(FUNCY) serve -s _build/smoke-serve.sock --jobs 2 \
	  --trace _build/smoke-serve.jsonl > _build/smoke-serve-daemon.out \
	  2> _build/smoke-serve-daemon.err & echo $$! > _build/smoke-serve.pid
	$(FUNCY) client -s _build/smoke-serve.sock --wait 10 --quiet \
	  -b swim -a cfr --seed 42 -k 120 > _build/smoke-serve-client.out
	$(FUNCY) tune -b swim -a cfr --seed 42 -k 120 \
	  > _build/smoke-serve-solo.out
	sed -n '/^CFR: speedup/,$$p' _build/smoke-serve-solo.out \
	  > _build/smoke-serve-solo-block.out
	cmp _build/smoke-serve-client.out _build/smoke-serve-solo-block.out
	! $(FUNCY) client -s _build/smoke-serve.sock --quiet -b cl -a cfr \
	  --seed 9 -k 1000 --deadline-ms 15 > /dev/null \
	  2> _build/smoke-serve-cancel.err
	grep -q deadline_exceeded _build/smoke-serve-cancel.err
	$(FUNCY) client -s _build/smoke-serve.sock --quiet -b cl -a cfr \
	  --seed 9 -k 1000 > _build/smoke-serve-cancel.out
	$(FUNCY) tune -b cl -a cfr --seed 9 -k 1000 \
	  | sed -n '/^CFR: speedup/,$$p' > _build/smoke-serve-cancel-solo.out
	cmp _build/smoke-serve-cancel.out _build/smoke-serve-cancel-solo.out
	$(FUNCY) client -s _build/smoke-serve.sock --stats \
	  | grep -Eq '^cancelled +1$$'
	$(FUNCY) loadgen -s _build/smoke-serve.sock --clients 120 --zipf 1.1 \
	  > _build/smoke-serve-loadgen.out
	$(FUNCY) client -s _build/smoke-serve.sock --shutdown > /dev/null
	for i in `seq 1 100`; do \
	  kill -0 `cat _build/smoke-serve.pid` 2>/dev/null || break; sleep 0.1; done; \
	  ! kill -0 `cat _build/smoke-serve.pid` 2>/dev/null
	$(FUNCY) report _build/smoke-serve.jsonl | grep -q "Server requests"
	rm -rf _build/smoke-serve-term.sock _build/smoke-serve-state
	$(FUNCY) serve -s _build/smoke-serve-term.sock --jobs 2 \
	  --state-dir _build/smoke-serve-state --stats \
	  --trace _build/smoke-serve-term.jsonl \
	  > _build/smoke-serve-term.out 2> _build/smoke-serve-term.err & pid=$$!; \
	  $(FUNCY) client -s _build/smoke-serve-term.sock --wait 10 --quiet \
	    -b swim -a cfr --seed 42 -k 60 > /dev/null \
	    || { kill -KILL $$pid; exit 1; }; \
	  kill -TERM $$pid; \
	  for i in `seq 1 100`; do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	  if kill -0 $$pid 2>/dev/null; then kill -KILL $$pid; exit 1; fi; \
	  wait $$pid
	sed -n '/^engine telemetry:/,/^funcy serve: drained/p' \
	  _build/smoke-serve-term.out \
	  | grep -E '^  (builds|runs|cache) ' > _build/smoke-serve-term-stats.out
	$(FUNCY) report _build/smoke-serve-term.jsonl \
	  | sed -n '/^Derived engine counters:/,$$p' \
	  | grep -E '^  (builds|runs|cache) ' > _build/smoke-serve-term-report.out
	grep -Eq '^  builds +[1-9]' _build/smoke-serve-term-stats.out
	cmp _build/smoke-serve-term-stats.out _build/smoke-serve-term-report.out
	@echo "smoke-serve OK: served bytes = solo bytes, a lapsed deadline cancels its search, loadgen clean, drained on shutdown and on SIGTERM, --stats = report"

# Crash-recovery smoke (see DESIGN.md section 14): a supervised daemon
# with a durable journal SIGKILLs itself (chaos hook) after every 5th
# accepted request; a reconnecting zipfian loadgen burst must still
# complete every request with zero errors and zero byte divergence
# (loadgen exits 1 otherwise) while riding out the restarts, the
# daemon's counters must admit to the restarts it survived, and a
# protocol shutdown must drain the final generation cleanly.
smoke-recover: build
	rm -rf _build/smoke-recover && mkdir -p _build/smoke-recover
	$(FUNCY) serve -s _build/smoke-recover/sock \
	  --state-dir _build/smoke-recover/state --supervise \
	  --die-after-requests 5 --jobs 2 \
	  > _build/smoke-recover/daemon.out 2> _build/smoke-recover/daemon.err \
	  & echo $$! > _build/smoke-recover/pid
	$(FUNCY) loadgen -s _build/smoke-recover/sock --reconnect \
	  --clients 12 --concurrency 6 -k 60 --zipf 1.1 \
	  > _build/smoke-recover/loadgen.out
	grep -q "reconnects" _build/smoke-recover/loadgen.out
	$(FUNCY) client -s _build/smoke-recover/sock --stats \
	  > _build/smoke-recover/stats.out
	grep -Eq "restarts +[1-9]" _build/smoke-recover/stats.out
	$(FUNCY) client -s _build/smoke-recover/sock --shutdown > /dev/null
	for i in `seq 1 100`; do \
	  kill -0 `cat _build/smoke-recover/pid` 2>/dev/null || break; sleep 0.1; done; \
	  ! kill -0 `cat _build/smoke-recover/pid` 2>/dev/null
	@echo "smoke-recover OK: supervised restarts survived, loadgen consistent, drained cleanly"

# Perf regression gate (see perfbench/README.md): every perfbench workload
# over 3 seeds, then
#   1. every workload's outputs must match its jobs-1 oracle (the suite
#      records "correct":false for one that did not);
#   2. `compare` must find no REGRESSED row against the committed snapshot
#      under BENCHMARK.json's bounds (it exits 1 on one).
# The baseline is perfbench/results/BENCH_0cc7a25.json because it is the
# only committed snapshot (OCaml 5.1.1, 2 vCPUs); the next benchmark change
# commits a fresh one and re-points this target at it.
perf-gate:
	bash perfbench/run.sh suite --seeds 3 --out _build/perf-gate.json
	@if grep -q '"correct":false' _build/perf-gate.json; then \
	  echo "perf-gate: a workload's output differs from its oracle" >&2; \
	  exit 1; fi
	bash perfbench/run.sh compare perfbench/results/BENCH_0cc7a25.json \
	  _build/perf-gate.json

# Line coverage of `dune runtest` via bisect_ppx, which must be installed
# (it is deliberately NOT a build dependency: the instrumentation stanzas
# are inert unless dune is passed --instrument-with bisect_ppx, so default
# builds cost nothing).  See test/README.md.
coverage:
	@command -v ocamlfind >/dev/null 2>&1 && ocamlfind query bisect_ppx \
	  >/dev/null 2>&1 || \
	  { echo "coverage: bisect_ppx is not installed (opam install bisect_ppx)"; \
	    exit 1; }
	rm -rf _coverage
	BISECT_FILE=$(CURDIR)/_coverage/bisect $(DUNE) runtest --force \
	  --instrument-with bisect_ppx
	bisect-ppx-report html --coverage-path _coverage -o _coverage/html
	bisect-ppx-report summary --coverage-path _coverage

# Regenerate the golden CSV fixtures compared byte-for-byte by
# `dune runtest` (test/suite_golden.ml).  Commit the diff deliberately:
# a golden change means the search's observable behaviour changed.
golden: build
	$(FUNCY) experiment fig5c fig7a -k 12 --csv-dir test/golden

smokes: $(SMOKES)

check: build test smokes

clean:
	$(DUNE) clean
