"""docs/NEMESIS.md's examples run against the API as it is."""

import contextlib
import io
import re
from pathlib import Path

from repro.harness import AuditSpec, Cluster, nemesis_config, run_spec

DOC = (Path(__file__).resolve().parent.parent / "docs" / "NEMESIS.md"
       ).read_text()


def fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", DOC, flags=re.DOTALL)


def test_python_blocks_run_in_order_on_a_small_cluster():
    blocks = fenced("python")
    assert len(blocks) >= 3
    cluster = Cluster(nemesis_config(populate_keys=40))
    namespace = {"cluster": cluster}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "docs/NEMESIS.md", "exec"), namespace)
    labels = [label for _, label in namespace["plan"].timeline]
    assert labels[0].startswith("asymmetric partition")
    assert "restart srv-1-1" in labels
    assert namespace["chaos"].timeline
    assert not cluster.network.faults.active


def test_console_excerpt_is_the_cli_output():
    (console,) = fenced("console")
    command, output = console.split("\n", 1)
    assert command.endswith("python -m repro audit --scenario combo")
    assert output.rstrip("\n") == run_spec(AuditSpec("combo")).summary()
