"""Regenerate the golden-file regression partitions.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/differential/regenerate_golden.py

The script runs the same graphs/config as ``tests/differential/conftest.py``
on every backend, verifies they agree, and rewrites ``golden/*.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import diff_config, diff_graph_a, diff_graph_b  # noqa: E402,F401

from repro.testing.differential import (  # noqa: E402
    REFERENCE_BACKEND,
    assert_all_results_identical,
    golden_record,
    run_backends,
    run_sequential,
)


def main() -> None:
    golden_dir = Path(__file__).parent / "golden"
    golden_dir.mkdir(exist_ok=True)
    config = diff_config.__wrapped__()
    graphs = {
        "sbm-a": diff_graph_a.__wrapped__(),
        "sbm-b": diff_graph_b.__wrapped__(),
    }
    for name, graph in graphs.items():
        results = run_backends(run_sequential, graph, config)
        assert_all_results_identical(results)
        record = golden_record(results[REFERENCE_BACKEND])
        path = golden_dir / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        reference = results[REFERENCE_BACKEND]
        print(f"wrote {path} (B={record['num_blocks']}, DL={reference.description_length:.3f})")


if __name__ == "__main__":
    main()
