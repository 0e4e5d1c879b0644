# Developer entry points for the TwigM reproduction.

PYTHON ?= python3
PROFILE ?= small

.PHONY: install test robustness bench multiq perf obs serve store transform latency docs figures examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

robustness:
	$(PYTHON) -m pytest tests/test_recovery.py tests/test_fault_injection.py \
		tests/test_checkpoint.py tests/test_resource_limits.py \
		tests/test_source_parity.py tests/test_robustness.py \
		tests/test_snapshot_golden.py tests/test_multiq_snapshot.py \
		tests/test_store_golden.py tests/test_expat_source.py \
		tests/test_diagnostics_parity.py tests/test_push_equivalence.py \
		tests/test_store_log.py tests/test_serve_session.py tests/test_serve_framing.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

multiq:
	$(PYTHON) ci/multiq_smoke.py
	$(PYTHON) -m pytest tests/test_multiq_shapes.py -q

perf:
	$(PYTHON) ci/perf_smoke.py

obs:
	$(PYTHON) ci/obs_smoke.py

serve:
	$(PYTHON) ci/serve_soak.py

store:
	$(PYTHON) ci/store_smoke.py

transform:
	$(PYTHON) ci/transform_smoke.py

latency:
	$(PYTHON) ci/latency_smoke.py

docs:
	$(PYTHON) ci/docs_check.py

figures:
	$(PYTHON) -m repro.bench --all --profile $(PROFILE)

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .bench_cache .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
