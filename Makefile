# Convenience targets for the POSG reproduction.

PYTHON ?= python
# every target runs against the in-tree sources without an install step
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test chaos chaos-parallel observe \
	multisource multisource-coord attribution latency figures \
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

# process-level chaos against the parallel engine: a worker crash and a
# worker hang injected mid-run under message loss; writes
# recovery_report.json (plus report.json/trace.jsonl) under
# chaos-parallel-out/ and exits non-zero unless the disturbed run is
# bit-identical to the sequential engine AND fully healed by
# respawn-replay
chaos-parallel:
	$(PYTHON) -m repro.experiments chaos --parallel 2 --scale 0.25 --output chaos-parallel-out

# scheduling-quality observatory: estimator audit, decision-quality
# metrics, phase profile and dashboard; writes quality_report.{json,html},
# metrics.prom, profile.json and flamegraph.txt under observe-out/
observe:
	$(PYTHON) -m repro.experiments observe --scale 0.25 --output observe-out

# multi-source sharding sweep: L(s)/L(1) for s in {1,2,4,8}, every
# point both plain and with cross-shard coordination on; writes both
# degradation curves to multisource-out/multisource.json and exits
# non-zero if s=1 diverges from the single-scheduler path, any shard
# never completes a sync round, or (at full scale) the coordinated
# curve fails the L(8)/L(1) < 3 flatness gate
multisource:
	$(PYTHON) -m repro.experiments multisource --scale 0.25 --output multisource-out

# the same sweep with the parallel-engine bit-identity leg armed — the
# configuration the multisource-coord CI job runs
multisource-coord:
	$(PYTHON) -m repro.experiments multisource --scale 0.25 --parallel 2 --output multisource-coord-out

# flight-recorder attribution sweep: reruns the multisource sweep under
# the cross-shard flight recorder through all three engines (timelines
# gated bit-identical) and decomposes each point's excess L into
# staleness / collision / residual; writes attribution.{json,html}
# under attribution-out/
attribution:
	$(PYTHON) -m repro.experiments attribution --scale 0.25 --output attribution-out

# per-tuple latency decomposition sweep: runs the lineage tracer over
# round-robin and POSG at s in {1,2,4} through all three engines
# (timelines gated bit-identical, partition gated exact) and writes
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
