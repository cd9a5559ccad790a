CLI := ./_build/default/bin/lbcc_cli.exe
LINT := ./_build/default/bin/lbcc_lint.exe
SERVE := ./_build/default/bin/lbcc_serve.exe
SPANNER_DEMO := ./_build/default/examples/spanner_demo.exe

# Warnings are errors by default (the configuration CI enforces); set
# LBCC_DEV=1 for a forgiving edit-compile loop where warnings only print.
# The warning set itself is fixed in the root `dune` env stanza.
DUNE_PROFILE := $(if $(LBCC_DEV),dev,strict)
DUNE := dune build --profile $(DUNE_PROFILE)

.PHONY: all build test lint lint-typed smoke bench-smoke perf fingerprints scale-smoke serve-smoke update-smoke doc ci clean

all: build

build:
	$(DUNE)

test:
	dune runtest --profile $(DUNE_PROFILE)

# Static analysis (determinism / round-accounting / hygiene rules; see
# DESIGN.md §8).  Writes the machine-readable report to lint.json and
# exits nonzero on any error or — under --strict, which this target
# uses — warning.
lint: build
	$(LINT) --strict --out lint.json lib bin bench examples

# Typed tier on top (DESIGN.md §13): interprocedural determinism taint,
# parallel-region race detection, phase-accounting flow and dead exports
# from the .cmt files of lib/ and of the executables (`@check` writes the
# executables' ones, which a native-only build skips).  Writes both the
# lbcc-lint/1 report and a SARIF 2.1.0 report (CI uploads both as
# artifacts).  A baseline can gate only new findings:
# make lint-typed LINT_BASELINE=lint-baseline.json
LINT_BASELINE_FLAG := $(if $(LINT_BASELINE),--baseline $(LINT_BASELINE),)
lint-typed: build
	$(DUNE) @check
	$(LINT) --strict --typed --out lint.json --sarif lint.sarif \
	  $(LINT_BASELINE_FLAG) lib bin bench examples

# Fault-injection smoke run: the reliable-broadcast layer must reproduce the
# lossless outputs under 20% drop + an injected crash, and the raw engine run
# must still terminate honestly.  Greps assert the recovery, not just exit 0.
# The certified sparsify run must keep --json and --reliability under
# --max-retries.
# Every spanner line of `lbcc spanner` at p = 0.5 and of the spanner demo
# (four graph families, p = 1 and p < 1) must report its Lemma 3.1
# stretch within the 2k-1 bound, with both endpoints' views agreeing.
# Last, an out-of-range --source, a malformed --input network, NaN or
# out-of-range numeric options and a size the generator rejects must be
# usage errors (exit 2), in lbcc and in lbcc-serve; an uncaught OCaml
# exception also exits 2, so the lbcc-serve lines also require that no
# "Fatal error" reaches stderr.
SPANNER_OK = awk '/stretch=/ { n++; \
  split(substr($$0, index($$0, "stretch=") + 8), f, /[ ()]+/); \
  if (f[1] !~ /^[0-9.]+$$/ || f[1] + 0 > f[3] + 0 || $$0 !~ /agree=true/) bad++ } \
  END { exit bad || !n }'

smoke: build
	$(CLI) dist --algo bfs --vertices 24 --drop-prob 0.2 --crash 23@30 \
	  --fault-seed 7 | grep -q 'matches lossless run: true'
	$(CLI) dist --algo sssp --drop-prob 0.15 --dup-prob 0.05 --fault-seed 3 \
	  | grep -q 'matches lossless run: true'
	$(CLI) dist --algo leader --model bcc --drop-prob 0.2 \
	  | grep -q 'matches lossless run: true'
	$(CLI) dist --algo bfs --reliability none --drop-prob 0.3 --fault-seed 2 \
	  | grep -q 'converged='
	$(CLI) sparsify --vertices 48 --max-retries 2 | grep -q 'verdict=ok'
	$(CLI) sparsify --vertices 48 --max-retries 2 --json | tail -1 \
	  | grep -q '"metrics"'
	$(CLI) sparsify --vertices 48 --reliability crash --max-retries 1 \
	  | grep -q retransmit
	$(CLI) dist --algo leader --model bcc --vertices 16 --byz-count 2 \
	  --byz-prob 0.2 --reliability byzantine \
	  | grep -q 'matches lossless run: true'
	$(CLI) dist --algo sssp --model bcc --vertices 16 --byz-count 2 \
	  --byz-prob 0.2 --reliability byzantine \
	  | grep -q 'matches lossless run: true'
	! $(CLI) dist --algo leader --model bcc --vertices 16 --byz-count 8 \
	  --byz-prob 0.4 --reliability byzantine | grep -q 'quorum-failures=0'
	$(CLI) spanner --vertices 32 --edge-prob 0.5 | $(SPANNER_OK)
	$(SPANNER_DEMO) | $(SPANNER_OK)
	$(CLI) dist --algo bfs --source 999 >/dev/null 2>&1; test $$? -eq 2
	f=$$(mktemp) && printf 'p mcmf 2 1 0 1\na 0 1 x 1\n' > $$f; \
	  $(CLI) flow --input $$f >/dev/null 2>&1; s=$$?; rm -f $$f; test $$s -eq 2
	$(CLI) spanner --edge-prob nan >/dev/null 2>&1; test $$? -eq 2
	$(CLI) sparsify --epsilon nan >/dev/null 2>&1; test $$? -eq 2
	$(CLI) solve --eps nan >/dev/null 2>&1; test $$? -eq 2
	$(CLI) sparsify --vertices 2 >/dev/null 2>&1; test $$? -eq 2
	@for a in 'serve --graphs 0' 'serve --vertices 1' 'serve --max-batch 0' \
	  'serve --max-queue 0' 'serve --window=-1' 'serve --networks=-1' \
	  'serve --cache-capacity=-1' 'bench --inflight 0'; do \
	  e=$$(timeout 60 $(SERVE) $$a --socket /tmp/lbcc-smoke-bad.sock \
	    2>&1 >/dev/null); s=$$?; \
	  if [ $$s -ne 2 ] || echo "$$e" | grep -q 'Fatal error'; then \
	    echo "smoke: lbcc-serve $$a exited $$s: $$e" >&2; exit 1; fi; \
	done
	@echo "smoke: OK"

# Benchmark smoke: the whole unit suite re-run on a 2-domain worker pool
# (any sequential/parallel divergence fails the determinism suite), then
# fast experiments (E2, E4 and E15 gate the spanner round ratio, the
# Lemma 3.3 equal means and the k ablation) plus the multicore PERF
# profile emitting machine-readable reports; each BENCH_<EXP>.json must
# parse and validate against the lbcc-bench/1 schema (the harness itself
# exits nonzero if any claim leaves its bound — for PERF that includes
# outputs differing across pool sizes).
bench-smoke: build
	LBCC_DOMAINS=2 dune runtest --force
	rm -rf _bench_reports && mkdir -p _bench_reports
	dune exec bench/main.exe -- E1 E2 E3 E4 E5 E15 BYZ PERF BATCH --json \
	  --out _bench_reports
	$(CLI) report --validate _bench_reports/BENCH_E1.json \
	  _bench_reports/BENCH_E2.json _bench_reports/BENCH_E3.json \
	  _bench_reports/BENCH_E4.json _bench_reports/BENCH_E5.json \
	  _bench_reports/BENCH_E15.json _bench_reports/BENCH_BYZ.json \
	  _bench_reports/BENCH_PERF.json _bench_reports/BENCH_BATCH.json
	@echo "bench-smoke: OK"

# Regenerate the golden fingerprint file that pins every protocol in the
# shared table (test/fp/fp.ml) at the golden seeds.  Refuses to run from a
# dirty tree: a new baseline must be its own reviewable commit, with the
# code change that moved the fingerprints visible in the same diff.
fingerprints: build
	@if ! git diff --quiet || ! git diff --cached --quiet; then \
	  echo "fingerprints: tree is dirty; commit or stash first" >&2; exit 1; \
	fi
	dune exec test/fp/fp_dump.exe > test/fingerprints.expected
	@echo "fingerprints: regenerated test/fingerprints.expected"

# Scaling smoke: the SCALE engine wave over its full sweep, n = 1024 to
# 8192 (about a second).  The claims (allocation per vertex,
# broadcast-capacity invariant, sweep completion) are asserted by the
# harness exit code, and the report must validate against the
# lbcc-bench/1 schema.
scale-smoke: build
	rm -rf _bench_reports && mkdir -p _bench_reports
	dune exec bench/main.exe -- SCALE --json --out _bench_reports
	$(CLI) report --validate _bench_reports/BENCH_SCALE.json
	@echo "scale-smoke: OK"

# Daemon smoke (DESIGN.md §11): fork a coalescing daemon, a serial-dispatch
# baseline and an overloaded small-queue daemon; replay the seeded zipf trace
# over 16 concurrent clients; check every response bit-for-bit against direct
# in-process solves; validate the BENCH_SERVE.json claims (the bench itself
# exits 1 on an SLO violation).  Every daemon must remove its socket file
# once drained, so none of the .a/.b/.c files may remain.
SERVE_SMOKE_SOCK := /tmp/lbcc-serve-smoke.sock
serve-smoke: build
	mkdir -p _bench_reports
	rm -f $(SERVE_SMOKE_SOCK) $(SERVE_SMOKE_SOCK).*
	$(SERVE) bench --out _bench_reports --socket $(SERVE_SMOKE_SOCK)
	$(CLI) report --validate _bench_reports/BENCH_SERVE.json
	@left=$$(ls -d $(SERVE_SMOKE_SOCK)* 2>/dev/null); if [ -n "$$left" ]; then \
	  echo "serve-smoke: socket files left behind:" $$left >&2; exit 1; fi
	@echo "serve-smoke: OK"

# Dynamic-graph smoke: the UPDATE experiment (incremental update rounds vs
# full rebuild across delta sizes, a-posteriori certification, fingerprint
# patch exactness, 1/2/4-domain bit-identity — the harness exits nonzero if
# any claim leaves its bound), then one end-to-end CLI delta stream.
update-smoke: build
	mkdir -p _bench_reports
	dune exec bench/main.exe -- UPDATE --json --out _bench_reports
	$(CLI) report --validate _bench_reports/BENCH_UPDATE.json
	$(CLI) update --vertices 48 --steps 2 --ops 6 --json \
	  | tail -1 | grep -q '"certified":true'
	@echo "update-smoke: OK"

# Multicore wall-clock profile alone: times the E11-style pipeline at 1 vs 4
# worker domains (outputs must stay bit-identical) and measures the
# allocation profile of the Laplacian solve loop; writes BENCH_PERF.json.
perf: build
	rm -rf _bench_reports && mkdir -p _bench_reports
	dune exec bench/main.exe -- PERF --json --out _bench_reports
	$(CLI) report --validate _bench_reports/BENCH_PERF.json
	@echo "perf: OK"

# API docs via odoc.  Skipped gracefully where odoc is not installed so the
# target is safe in minimal containers; CI installs odoc and runs it for real.
doc:
	@if command -v odoc >/dev/null 2>&1 || opam list --installed odoc >/dev/null 2>&1; then \
	  dune build @doc && echo "doc: HTML under _build/default/_doc/_html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

ci: build test lint lint-typed smoke serve-smoke update-smoke

clean:
	dune clean
