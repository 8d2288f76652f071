# Convenience targets for the CAER reproduction.

PYTHON ?= python

.PHONY: install test bench simspeed figures report examples clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) bench/run.py --workload paper-serial --seconds 40 --trace 0

simspeed:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simspeed.py
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simspeed.py --trace-overhead
	PYTHONPATH=src $(PYTHON) benchmarks/bench_simspeed.py --export-overhead

figures:
	$(PYTHON) -m repro.cli all

report:
	$(PYTHON) -m repro.cli report

examples:
	$(PYTHON) examples/quickstart.py 0.05
	$(PYTHON) examples/datacenter_colocation.py
	$(PYTHON) examples/heuristic_tuning.py
	$(PYTHON) examples/contention_analysis.py
	$(PYTHON) examples/online_monitoring.py
	$(PYTHON) examples/capacity_planning.py

clean:
	rm -rf results/figures.txt .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
