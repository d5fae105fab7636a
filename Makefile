# Convenience targets for the POSG reproduction.

PYTHON ?= python
# every target runs against the in-tree sources without an install step
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test chaos observe latency figures \
	figures-paper-scale examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest -x -q

# fault-injection acceptance scenario: 10% control-plane loss plus one
# mid-stream crash; writes report.json/metrics.prom/trace.jsonl under
# chaos-out/ and exits non-zero unless the scheduler recovers to RUN
chaos:
	$(PYTHON) -m repro.experiments chaos --scale 0.25 --output chaos-out

# scheduling-quality observatory: estimator audit, decision-quality
# metrics, phase profile and dashboard; writes quality_report.{json,html},
# metrics.prom, profile.json and flamegraph.txt under observe-out/
observe:
	$(PYTHON) -m repro.experiments observe --scale 0.25 --output observe-out

# per-tuple latency decomposition: runs the lineage tracer over
# round-robin and POSG (s = 1) through both engines (timelines gated
# bit-identical, partition gated exact) and writes
# latency_report.{json,html} + metrics.prom under latency-out/
latency:
	$(PYTHON) -m repro.experiments latency --scale 0.25 --output latency-out

# regenerate every paper figure, then check the paper's figure and
# theorem claims; exits non-zero if one misses (performance is measured
# by the pinned benchmark, `python -m bench`, see bench/README.md)
figures:
	$(PYTHON) -m repro.experiments all

# paper-scale reproduction (hours of CPU)
figures-paper-scale:
	REPRO_REPS=100 $(PYTHON) -m repro.experiments all

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/policy_comparison.py 16384 5
	$(PYTHON) examples/queue_dynamics.py
	$(PYTHON) examples/load_shift_adaptation.py
	$(PYTHON) examples/tweet_enrichment_topology.py 50000 5
	$(PYTHON) examples/sketch_playground.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
