.PHONY: all smoke test ci bench bench-search bench-search-smoke bench-cost bench-cost-smoke bench-replan bench-replan-smoke bench-serve bench-serve-smoke bench-sched bench-sched-smoke bench-hetero bench-hetero-smoke bench-exec bench-exec-smoke clean

all:
	dune build @all

# fast correctness gate: typecheck everything, then the full test suite
smoke:
	dune build @check && dune runtest

test:
	dune runtest

bench:
	dune exec bench/main.exe

# domain-parallel search sweep: writes BENCH_search.json (full sweep:
# domains 1/2/4/8 on 8-relation workloads; speedups need a multicore box)
bench-search:
	dune exec bench/main.exe -- --only e17

# same experiment shrunk for CI gates (one small workload, domains 1/2/4);
# fails loudly if parallel overhead exceeds 1.3x sequential
bench-search-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e17

# incremental-costing micro-bench: cached vs uncached PODP, identity
# checked, writes BENCH_cost.json (full: chain-8, star-8 and bushy
# chain-4)
bench-cost:
	dune exec bench/main.exe -- --only e18

# same experiment shrunk for CI gates (chain-5 and bushy chain-4, one
# repeat)
bench-cost-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e18

# adaptive re-planning vs static recovery under engineered outages:
# asserts fault-free bit-identity and that adaptive beats static on at
# least one severity per workload; writes BENCH_replan.json
bench-replan:
	dune exec bench/main.exe -- --only e19

# same experiment shrunk for CI gates (chain only, one severity)
bench-replan-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e19

# serving bench: request streams with deadlines, shedding and chaos;
# asserts no request is lost and the in-flight cap holds
bench-serve:
	dune exec bench/main.exe -- --only e20

bench-serve-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e20

# workload co-scheduling bench: policies x arrival intensities plus the
# contention crossover; asserts utilization <= 1, busy conservation,
# single-query bit-identity with the simulator, SRW <= fair-share at
# heavy load, and that the low-work plan wins under contention; writes
# BENCH_sched.json
bench-sched:
	dune exec bench/main.exe -- --only e22

bench-sched-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e22

# heterogeneous degradation and elastic recovery: brownout severities and
# scale-out onsets, static vs adaptive; asserts event-free bit-identity,
# the all-nominal rescale no-op, the heterogeneous balance bound, that
# adaptive beats static on at least one brownout, and that at least one
# scale-out delivers work on the grown resource; writes BENCH_hetero.json
bench-hetero:
	dune exec bench/main.exe -- --only e23

bench-hetero-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e23

# executor allocation: minor words per output row of the sequential and
# the partitioned executor on the execute workload's five prepared
# queries, gated per query (prints a table; writes nothing)
bench-exec:
	dune exec bench/main.exe -- --only e24

bench-exec-smoke:
	timeout 600 env PARQO_SMOKE=1 dune exec bench/main.exe -- --only e24

# the CI gate: full test suite plus the smoke micro-benches (which assert
# cached-vs-uncached and replan bit-identity end to end, that the
# parallel search machinery costs at most 1.3x the sequential path and
# pays off on a multicore host, and the executors' words per row)
ci:
	dune build @all && dune runtest && $(MAKE) bench-search-smoke && $(MAKE) bench-cost-smoke && $(MAKE) bench-replan-smoke && $(MAKE) bench-serve-smoke && $(MAKE) bench-sched-smoke && $(MAKE) bench-hetero-smoke && $(MAKE) bench-exec-smoke

clean:
	dune clean
