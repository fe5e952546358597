# Convenience targets; CI runs `make ci` on every PR.

.PHONY: all build test bench strategy-smoke fuzz-smoke validate-smoke obs-smoke front-end-smoke lint-smoke absint-smoke par-smoke stream-smoke serve-smoke trace-smoke soak-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

# The repo benchmark (BENCHMARK.json; see perfbench/NOTES.md): each
# workload end to end, one seeded 10-second run, untraced.  The
# paper's tables and Figures A-C come from `impact all`.
bench:
	python3 perfbench/run.py --workload compile-suite --seed 1 --seconds 10 --trace 0
	python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 10 --trace 0
	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

# Smoke the layout-strategy registry: the listing must enumerate it and
# the comparison experiment must run every registered strategy end to end.
strategy-smoke:
	dune exec bin/main.exe -- list
	dune exec bin/main.exe -- table strategy-comparison -b cmp

# Differential layout fuzzer: 200 seeded random programs through the
# whole pipeline and every registered strategy, violation-free.  Seeds
# are printed so a failure is reproducible with `fuzz --seed N`.
fuzz-smoke:
	dune exec bin/fuzz.exe -- --seed 1 --count 200

# One table under exhaustive invariant verification (flow conservation
# and the simulation cross-check included); nonzero exit on violation.
validate-smoke:
	dune exec bin/main.exe -- table strategy-comparison -b cmp --validate=full

# Telemetry end to end: one table run emitting all three machine-readable
# outputs (Chrome trace, metrics dump, row JSON), each of which must
# exist and parse.
obs-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- table comparison -b cmp \
	  --trace-out=_obs/trace.json --metrics-out=_obs/metrics.txt \
	  --json=_obs/rows.json
	test -s _obs/metrics.txt
	dune exec bin/checkjson.exe -- _obs/trace.json _obs/rows.json

# Front-end work gate: these counters are deterministic, so CI holds
# them exactly.  Profile passes: cmp inlines nothing and reuses its one
# profile (1); yacc's three inlining rounds force three more (4).  A
# pass that comes back, or a redundant one added, fails here, as does
# any change in inlined sites or analysis iterations.  A change that
# moves a counter on purpose updates it here and says why in CHANGES.md.
FRONT_END_COUNTERS = pipeline.profile_passes=5 pipeline.sites_inlined=12 \
  analysis.dataflow_iterations=5707 absint.must_iterations=1389 \
  absint.may_iterations=4318

front-end-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- lint -b cmp,yacc \
	  --metrics-out=_obs/front-end-metrics.txt > /dev/null
	awk -v counters="$(FRONT_END_COUNTERS)" ' \
	  BEGIN { n = split(counters, kv, " "); \
	    for (i = 1; i <= n; i++) { split(kv[i], p, "="); want[p[1]] = p[2] } } \
	  $$1 == "counter" && ($$2 in want) { got[$$2] = $$3 } \
	  END { bad = 0; \
	    for (k in want) if (got[k] != want[k]) { \
	      print k " = " got[k] ", want " want[k]; bad = 1 } \
	    exit bad }' \
	  _obs/front-end-metrics.txt

# Static layout linter end to end: two benchmarks across every
# registered strategy, JSON report written and re-parsed, lint metrics
# dumped.  No simulation happens anywhere in this target.
lint-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- lint -b cmp,wc --strategy all --format json \
	  --metrics-out=_obs/lint-metrics.txt > _obs/lint.json
	test -s _obs/lint-metrics.txt
	dune exec bin/checkjson.exe -- _obs/lint.json

# Abstract-interpretation cache bounds end to end: certify two
# benchmarks across every registered strategy (no simulation), re-parse
# the impact.absint/v1 report, then fuzz 200 seeded programs with the
# differential soundness oracle live (always-hit accesses never miss,
# first-miss lines miss at most once per loop entry, simulated misses
# inside every certified interval).
absint-smoke:
	rm -rf _obs && mkdir -p _obs
	dune exec bin/main.exe -- absint -b cmp,yacc --strategy all \
	  --format json > _obs/absint.json
	dune exec bin/checkjson.exe -- _obs/absint.json
	dune exec bin/fuzz.exe -- --seed 1 --count 200

# Parallel bit-identity: the same table and the same quiet fuzz
# campaign at -j 1 and -j 2 must produce byte-identical output (rows,
# failures, everything on stdout).
par-smoke:
	rm -rf _par && mkdir -p _par
	dune exec bin/main.exe -- table strategy-comparison -b cmp,wc -j 1 \
	  > _par/table-j1.txt
	dune exec bin/main.exe -- table strategy-comparison -b cmp,wc -j 2 \
	  > _par/table-j2.txt
	cmp _par/table-j1.txt _par/table-j2.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 200 --quiet -j 1 \
	  > _par/fuzz-j1.txt
	dune exec bin/fuzz.exe -- --seed 1 --count 200 --quiet -j 2 \
	  > _par/fuzz-j2.txt
	cmp _par/fuzz-j1.txt _par/fuzz-j2.txt

# Compressed trace store end to end: a scaled table must be
# byte-identical between -j 1 and -j 2, and so must the store's own
# accounting (the trace.* gauges: runs, raw, stored and peak bytes),
# which must not depend on the lane count; the committed scaled bench
# report must parse.
stream-smoke:
	rm -rf _stream && mkdir -p _stream
	dune exec bin/main.exe -- table 6 -b cmp,wc --scale 2 -j 1 \
	  --metrics-out=_stream/metrics-j1.txt > _stream/t6-scale-j1.txt
	dune exec bin/main.exe -- table 6 -b cmp,wc --scale 2 -j 2 \
	  --metrics-out=_stream/metrics-j2.txt > _stream/t6-scale-j2.txt
	cmp _stream/t6-scale-j1.txt _stream/t6-scale-j2.txt
	grep -E '^gauge +trace\.' _stream/metrics-j1.txt > _stream/trace-j1.txt
	grep -E '^gauge +trace\.' _stream/metrics-j2.txt > _stream/trace-j2.txt
	test -s _stream/trace-j1.txt
	cmp _stream/trace-j1.txt _stream/trace-j2.txt
	dune exec bin/checkjson.exe -- BENCH_pr7.json

# Layout service end to end: the committed golden request stream must
# replay byte-identically to the committed responses (serially and with
# a 2-lane pool); under cap pressure (one-entry memo and map caches, so
# eviction is constant) every response but stats must still match; a
# 200-request seeded chaos campaign must finish with zero crashes and
# one well-formed response per request; and the chaos report plus the
# replayed responses must re-parse with checkjson.
# Last, over a real Unix socket: a client that pipelines 2000 requests
# and hangs up unread must not take the daemon down — the next client
# still gets its answer and a clean shutdown.
serve-smoke:
	rm -rf _serve && mkdir -p _serve
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  --expect test/vectors/serve/responses.ndjson -b cmp -q -j 1
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  -b cmp -q -j 2 > _serve/replay-j2.ndjson
	cmp _serve/replay-j2.ndjson test/vectors/serve/responses.ndjson
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  -b cmp -q --memo-cap 1 --map-cap 1 -j 2 > _serve/replay-capped.ndjson
	grep -v '"request":"stats"' _serve/replay-capped.ndjson \
	  > _serve/capped-answers.ndjson
	grep -v '"request":"stats"' test/vectors/serve/responses.ndjson \
	  > _serve/golden-answers.ndjson
	cmp _serve/capped-answers.ndjson _serve/golden-answers.ndjson
	dune exec bin/serve.exe -- --chaos --chaos-n 200 \
	  --chaos-out _serve/chaos.json -q
	dune exec bin/checkjson.exe -- _serve/chaos.json
	dune exec bin/checkjson.exe -- --ndjson _serve/replay-j2.ndjson \
	  test/vectors/serve/responses.ndjson
	dune build bin/serve.exe
	./_build/default/bin/serve.exe --socket _serve/gone.sock -b cmp -q & \
	  pid=$$!; \
	  if python3 test/serve_gone_client.py _serve/gone.sock; then \
	    wait $$pid; \
	  else kill $$pid; exit 1; fi

# Request tracing end to end: replaying the golden stream with span
# recording on must stay byte-identical to the committed responses
# (instrumentation never changes results), and the emitted Chrome trace
# and metrics dump must exist and parse back.
trace-smoke:
	rm -rf _trace && mkdir -p _trace
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  --expect test/vectors/serve/responses.ndjson -b cmp -q \
	  --trace-out _trace/serve-trace.json
	test -s _trace/serve-trace.json
	dune exec bin/checkjson.exe -- _trace/serve-trace.json
	dune exec bin/serve.exe -- --replay test/vectors/serve/requests.ndjson \
	  -b cmp -q --metrics-out _trace/serve-metrics.txt > /dev/null
	grep -q "serve.latency.all.seconds" _trace/serve-metrics.txt

# Sustained-load soak: 30 seconds of the seeded chaos-weighted workload
# with telemetry live.  The harness itself asserts the contract — zero
# crashes, one response per request, exactly-once staleness
# notifications, nonzero latency quantiles, live heap under the ceiling
# — and exits 1 on any violation; the impact.soak/v1 report must
# re-parse with its required fields present.
soak-smoke:
	rm -rf _soak && mkdir -p _soak
	dune exec bin/serve.exe -- --soak 30 --soak-ceiling-mb 512 \
	  --soak-out _soak/soak.json -q
	dune exec bin/checkjson.exe -- _soak/soak.json

ci: build test strategy-smoke fuzz-smoke validate-smoke obs-smoke front-end-smoke lint-smoke absint-smoke par-smoke stream-smoke serve-smoke trace-smoke soak-smoke

clean:
	dune clean
