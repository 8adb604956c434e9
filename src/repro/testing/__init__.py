"""Testing utilities shipped with the library.

:mod:`repro.testing.differential` is the cross-backend differential-testing
harness: it runs the same algorithm through every blockmodel storage backend
under a fixed seed and asserts bit-identical behaviour.  It lives in the
package (rather than under ``tests/``) so downstream backends and benchmark
scripts can reuse it.
"""

from repro.testing.differential import (
    ALL_BACKENDS,
    PhaseSnapshot,
    PhaseTrace,
    assert_results_identical,
    assert_traces_identical,
    golden_record,
    run_backends,
    run_dcsbp,
    run_edist,
    run_sequential,
    trace_phases,
)

__all__ = [
    "ALL_BACKENDS",
    "PhaseSnapshot",
    "PhaseTrace",
    "assert_results_identical",
    "assert_traces_identical",
    "golden_record",
    "run_backends",
    "run_dcsbp",
    "run_edist",
    "run_sequential",
    "trace_phases",
]
