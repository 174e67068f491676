# Convenience targets for the AN2 reproduction.

.PHONY: install test claims check check-full bench-suite bench-suite-compare sched-study scenario-smoke fleet-smoke perf-report trace-demo examples lint clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

# The paper's quantitative claims as statistical and exact tests, on the
# fast path where a batched kernel exists (part of tier-1 too; this runs
# them alone and lists the slowest against their 60 s budget).
claims:
	PYTHONPATH=src python -m pytest tests/claims -q --durations=15

# Bounded randomized invariant/differential sweeps, one line per fuzz
# family (CI's smoke stage runs this target): switch, integrated
# CBR+VBR parity, Slepian-Duguid churn, statistical, network, scenario.
check:
	PYTHONPATH=src python -m repro.cli check --suite switch --seeds 25 --budget 60s
	PYTHONPATH=src python -m repro.cli check --suite cbr --seeds 8 --budget 60s
	PYTHONPATH=src python -m repro.cli check --suite churn --seeds 25 --budget 30s
	PYTHONPATH=src python -m repro.cli check --suite statistical --seeds 8 --budget 60s
	PYTHONPATH=src python -m repro.cli check --suite network --seeds 8 --budget 60s
	PYTHONPATH=src python -m repro.cli check --suite scenario --seeds 10 --budget 60s

# Nightly-style deep sweep: more seeds plus the slow-marked pytest sweeps
# (includes the CBR parity sweep in tests/sim/test_fastpath_cbr.py).
check-full:
	PYTHONPATH=src python -m repro.cli check --suite all --seeds 200 --budget 10m
	PYTHONPATH=src python -m pytest -q tests/check tests/sim -m slow

# The repo's benchmark (BENCHMARK.json): eight workloads in absolute
# units, verified, untraced then traced; results.json + trace.json land
# in OUT (`make bench-suite OUT=dir`).  Compare two such directories
# taken at the same seed with `make bench-suite-compare A=dir B=dir`.
bench-suite:
	PYTHONPATH=src python benchmarks/suite/run.py --seed 0 $(if $(OUT),--out $(OUT))

bench-suite-compare:
	python benchmarks/suite/compare.py $(A) $(B)

# Cross-scheduler delay-vs-load study with the maximal-matching
# (Cogill-Lall style) delay bound checked where it applies.
sched-study:
	PYTHONPATH=src python -m repro.cli sched-study --slots 1000 --replicas 4

# One small named scenario per batched kernel through BOTH backends with
# slot-exact parity; prints (and optionally saves) the FCT table.
scenario-smoke:
	PYTHONPATH=src python -m repro.cli scenario smoke --slots 250 --out scenario-fct-table.txt

# Tiny fleet sweep (pim/islip x object/fastpath) through the declarative
# runner: run (resumable, 2 workers), status, gate on the deterministic
# throughput metric against the committed fleet_smoke trajectory (it is
# seed-exact, so the gate allows no drop at all: --tolerance 0), and
# write the report table (CI uploads it as an artifact).
FLEET_SMOKE_SPEC = benchmarks/perf/specs/fleet_smoke.json
FLEET_SMOKE_STORE = fleet-results/fleet_smoke.jsonl
fleet-smoke:
	PYTHONPATH=src python -m repro.cli fleet run $(FLEET_SMOKE_SPEC) \
		--results $(FLEET_SMOKE_STORE) --pool 2
	PYTHONPATH=src python -m repro.cli fleet status $(FLEET_SMOKE_SPEC) \
		--results $(FLEET_SMOKE_STORE)
	PYTHONPATH=src python -m repro.cli fleet gate $(FLEET_SMOKE_SPEC) \
		--results $(FLEET_SMOKE_STORE) --metric throughput --tolerance 0
	PYTHONPATH=src python -m repro.cli fleet report $(FLEET_SMOKE_SPEC) \
		--results $(FLEET_SMOKE_STORE) --out fleet-report.txt

# Live per-phase wall-time breakdown of the headline fast-path config.
perf-report:
	PYTHONPATH=src python -m repro.cli perf report --backend fastpath --replicas 16

# Trace a 16-port PIM run at load 0.9 on both backends, then render
# the PIM anatomy / backlog summary from the JSONL trace files.
trace-demo:
	PYTHONPATH=src python -m repro.cli delay --load 0.9 --ports 16 \
		--slots 2000 --warmup 200 --trace trace_object.jsonl --metrics
	PYTHONPATH=src python -m repro.cli delay --backend fastpath --load 0.9 \
		--ports 16 --slots 2000 --warmup 200 --trace trace_fastpath.jsonl \
		--trace-stride 4 --metrics
	PYTHONPATH=src python -m repro.cli trace summarize trace_object.jsonl --plot
	PYTHONPATH=src python -m repro.cli trace summarize trace_fastpath.jsonl

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/hol_blocking_demo.py
	PYTHONPATH=src python examples/multimedia_cbr.py
	PYTHONPATH=src python examples/fairness_statistical.py
	PYTHONPATH=src python examples/network_clientserver.py
	PYTHONPATH=src python examples/multicast_videowall.py
	PYTHONPATH=src python examples/scenario_study.py
	PYTHONPATH=src python examples/scheduler_zoo_study.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
