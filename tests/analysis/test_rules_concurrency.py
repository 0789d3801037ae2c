"""RPR004/RPR006/RPR007: picklability across the pickling boundary, lock
discipline on shared state, and swallowed broad exceptions."""

from __future__ import annotations

from tests.analysis.conftest import codes_of


class TestUnpicklableCallable:
    def test_lambda_into_submission_path_fires(self, check_source):
        findings = check_source(
            """
            def run(oracle, coalitions):
                return oracle.evaluate_batch(coalitions, lambda c: float(len(c)))
            """,
            codes=["RPR004"],
        )
        assert codes_of(findings) == ["RPR004"]
        assert "test_picklability" in findings[0].message

    def test_lambda_as_evaluator_keyword_fires_once(self, check_source):
        findings = check_source(
            """
            def build(oracle_cls, coalitions):
                return oracle_cls(evaluator=lambda c: 0.0)
            """,
            codes=["RPR004"],
        )
        assert codes_of(findings) == ["RPR004"]

    def test_lambda_model_factory_fires(self, check_source):
        findings = check_source(
            """
            def build(spec_cls, Model):
                return spec_cls(model_factory=lambda: Model(n_features=8))
            """,
            codes=["RPR004"],
        )
        assert codes_of(findings) == ["RPR004"]

    def test_partial_model_factory_is_the_sanctioned_form(self, check_source):
        findings = check_source(
            """
            from functools import partial

            def build(spec_cls, Model):
                return spec_cls(model_factory=partial(Model, n_features=8))
            """,
            codes=["RPR004"],
        )
        assert findings == []

    def test_local_function_into_submit_fires(self, check_source):
        findings = check_source(
            """
            def run(pool, payload):
                def work():
                    return payload + 1

                return pool.submit(work)
            """,
            codes=["RPR004"],
        )
        assert codes_of(findings) == ["RPR004"]
        assert "closures cannot be pickled" in findings[0].message

    def test_module_level_function_is_silent(self, check_source):
        findings = check_source(
            """
            def work(payload):
                return payload + 1

            def run(pool, payload):
                return pool.submit(work, payload)
            """,
            codes=["RPR004"],
        )
        assert findings == []

    def test_does_not_apply_to_tests(self, check_source):
        # Test code drives the in-process backends with lambdas all over;
        # only library code must stay picklable.
        findings = check_source(
            """
            def test_oracle(oracle):
                assert oracle.evaluate_batch([(0,)], lambda c: 1.0) == [1.0]
            """,
            filename="tests/test_mod.py",
            codes=["RPR004"],
        )
        assert findings == []


class TestUnlockedSharedMutation:
    def test_unlocked_write_in_lock_owning_class_fires(self, check_source):
        findings = check_source(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    self._data[key] = value
            """,
            codes=["RPR006"],
        )
        assert codes_of(findings) == ["RPR006"]
        assert "self._data" in findings[0].message

    def test_write_under_lock_is_silent(self, check_source):
        findings = check_source(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    with self._lock:
                        self._data[key] = value
            """,
            codes=["RPR006"],
        )
        assert findings == []

    def test_lock_transfer_docstring_exempts_helper(self, check_source):
        # The lock-transfer idiom: a private helper documents that its caller
        # must hold the lock, transferring the obligation up the stack.
        findings = check_source(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put(self, key, value):
                    with self._lock:
                        self._insert(key, value)

                def _insert(self, key, value):
                    \"\"\"Insert an entry; the caller must hold the lock.\"\"\"
                    self._data[key] = value
            """,
            codes=["RPR006"],
        )
        assert findings == []

    def test_init_is_exempt(self, check_source):
        findings = check_source(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}
                    self._hits = 0
            """,
            codes=["RPR006"],
        )
        assert findings == []

    def test_lockless_class_is_out_of_scope(self, check_source):
        # No lock, no declared sharing: single-threaded mutation is fine.
        findings = check_source(
            """
            class Counter:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
            """,
            codes=["RPR006"],
        )
        assert findings == []

    def test_augassign_outside_lock_fires(self, check_source):
        findings = check_source(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0

                def record(self):
                    self.hits += 1
            """,
            codes=["RPR006"],
        )
        assert codes_of(findings) == ["RPR006"]


class TestSwallowedBroadException:
    def test_swallowed_broad_except_fires(self, check_source):
        findings = check_source(
            """
            def read(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
            codes=["RPR007"],
        )
        assert codes_of(findings) == ["RPR007"]

    def test_bare_except_fires(self, check_source):
        findings = check_source(
            """
            def read(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            codes=["RPR007"],
        )
        assert codes_of(findings) == ["RPR007"]
        assert "bare except" in findings[0].message

    def test_broad_except_in_tuple_fires(self, check_source):
        findings = check_source(
            """
            def read(path):
                try:
                    return open(path).read()
                except (OSError, Exception):
                    return None
            """,
            codes=["RPR007"],
        )
        assert codes_of(findings) == ["RPR007"]

    def test_narrow_except_is_the_sanctioned_recovery(self, check_source):
        # The store's corruption recovery: anticipated failure modes only.
        findings = check_source(
            """
            def read(path):
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return None
            """,
            codes=["RPR007"],
        )
        assert findings == []

    def test_broad_except_that_reraises_is_silent(self, check_source):
        findings = check_source(
            """
            def read(path):
                try:
                    return open(path).read()
                except Exception:
                    cleanup(path)
                    raise
            """,
            codes=["RPR007"],
        )
        assert findings == []

    def test_broad_except_that_logs_is_silent(self, check_source):
        findings = check_source(
            """
            import logging

            def read(path):
                try:
                    return open(path).read()
                except Exception as error:
                    logging.getLogger(__name__).warning("read failed: %s", error)
                    return None
            """,
            codes=["RPR007"],
        )
        assert findings == []
