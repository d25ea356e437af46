# Repo-root convenience targets. The package runs from source with
# PYTHONPATH=src — no build step (see .claude/skills/verify/SKILL.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint test test-all sanitize-smoke trace-demo faults-demo \
	test-faults test-canonical test-integrals test-dfpt test-spectra \
	test-obs coverage-gate bench bench-compare

# qfbench (benchmarks/qfbench/README.md): run.py writes each seed's
# record-<sha>-seed<S>.json into BENCH_OUT; `make bench` copies it on
# into OUT, so two checkouts can keep their records apart for
# `make bench-compare OLD=<dir> NEW=<dir>`
BENCH_OUT := benchmarks/qfbench/out
OUT ?= $(BENCH_OUT)
SEEDS ?= 0 1 2 3 4

# QF physics-aware linter (docs/static_analysis.md); fails on any new
# unsuppressed finding — the same zero-findings bar the tier-1 test
# tests/devtools/test_lint_src_clean.py enforces.
lint:
	$(PYTHON) -m repro.devtools.lint src

# tier-1 suite (slow end-to-end tests deselected, per pyproject)
test:
	$(PYTHON) -m pytest -x -q

# everything, including @pytest.mark.slow end-to-end runs
test-all:
	$(PYTHON) -m pytest -q -m ""

# quick end-to-end proof that the runtime sanitizer is wired through
sanitize-smoke:
	QF_SANITIZE=1 $(PYTHON) -m repro water-raman --n 1 --verbose

# Perfetto-loadable span trace of a small water-cluster run, plus the
# terminal view of the same file (docs/observability.md)
trace-demo:
	$(PYTHON) -m repro water-raman --n 2 --solver dense \
		--trace trace-demo.json --metrics trace-demo.prom \
		--manifest trace-demo.manifest.json
	$(PYTHON) -m repro obs view trace-demo.json
	@echo "open https://ui.perfetto.dev and load trace-demo.json"

# fault tolerance end to end (docs/resilience.md): crash one monomer
# for good and straggle the dimer — the run retries, reissues, skips
# the dead fragment, and still delivers a (flagged) partial spectrum
# plus a resumable fragment store and a manifest with the accounting
faults-demo:
	rm -rf faults-demo.store
	$(PYTHON) -m repro water-raman --n 2 --solver dense \
		--inject-faults 'crash:water[0]@*;hang:ww[0,1]@1:0.5' \
		--retries 2 --timeout-s 60 --failure-policy skip_and_report \
		--canonical-cache faults-demo.store \
		--manifest faults-demo.manifest.json
	@echo "resuming from faults-demo.store with faults off:"
	$(PYTHON) -m repro water-raman --n 2 --solver dense \
		--retries 2 --canonical-cache faults-demo.store

# the fault-injection suite with the numerical sanitizer on — every
# recovery path (retry, reissue, pool restart, skip, resume) under
# full contract checking, the executor backends (the executor is the
# fault-tolerance layer) and their checkpoints into the store, plus
# the store's durability properties (torn writes, killed writers,
# crash debris)
test-faults:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/pipeline/test_resilience.py \
		tests/pipeline/test_executor.py \
		tests/pipeline/test_canonical_integration.py \
		tests/pipeline/test_runstore_properties.py \
		tests/pipeline/test_canonical_store.py

# the store's invariance harness with the sanitizer on, INCLUDING the
# slow split (-m "" re-selects @pytest.mark.slow, e.g. the 500-example
# exhaustive key-invariance property), its integration with the
# pipeline, executor and CLI, and the golden cold-vs-warm equivalence
# gate (docs/caching.md)
test-canonical:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q -m "" \
		tests/pipeline/test_canonical_properties.py \
		tests/pipeline/test_canonical_degenerate.py \
		tests/pipeline/test_canonical_integration.py \
		tests/pipeline/test_cache.py \
		tests/pipeline/test_golden_spectra.py

# the integral suites with the sanitizer on: the engine against the
# scalar McMurchie-Davidson reference and the loop oracle (bit for
# bit), derivatives against finite differences and translational
# invariance, and the Hermite Coulomb read bound
test-integrals:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/integrals

# the response suites with the sanitizer on: CPHF against the
# AO-basis iterative oracle and finite fields, analytic gradients
# against finite differences, and the displacement loop
test-dfpt:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/dfpt

# the spectrum-solver suites with the sanitizer on: the plain Lanczos
# recurrence against the reorthogonalized oracle, Lanczos/GAGQ against
# dense diagonalization (the exact k >= 3N rule and a non-degenerate
# operator), and the quadrature properties
test-spectra:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/spectra \
		tests/test_property_based.py::test_lanczos_quadrature_weights_nonnegative

# the telemetry suites with the sanitizer on: spans, exporters and the
# manifest, the CLI telemetry flags, and the executor backends whose
# pool workers ship spans back to the parent — the cross-process merge
# that carries every phase time (phase_wall_s is summed from spans)
test-obs:
	QF_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/obs tests/test_cli.py tests/pipeline/test_executor.py

# line-coverage gate over src/repro/pipeline on the tier-1 suite
# (stdlib tracer, no coverage.py needed — repro.devtools.covgate)
coverage-gate:
	$(PYTHON) -m repro.devtools.covgate \
		--target src/repro/pipeline --fail-under 85 -- -x -q

# qfbench: every workload, untraced then traced, once per seed in
# SEEDS; a failed run still leaves its record (compare counts it) and
# fails the target at the end
bench:
	mkdir -p $(OUT)
	rc=0; for s in $(SEEDS); do \
		python3 benchmarks/qfbench/run.py --seed $$s || rc=1; \
		rec=$$(ls -t $(BENCH_OUT)/record-*-seed$$s.json | head -n 1); \
		[ "$(abspath $(OUT))" = "$(abspath $(BENCH_OUT))" ] \
			|| cp "$$rec" $(OUT)/ || rc=1; \
	done; exit $$rc

# median delta of each end-to-end metric between two directories of
# records, against its BENCHMARK.json bound (exit 1 on a regression)
bench-compare:
	python3 benchmarks/qfbench/run.py --compare $(OLD) $(NEW)
