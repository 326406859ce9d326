"""Fingerprint equivalence of the schedule explorer's kernel.

The production simulator is pinned by ``test_fingerprints.py`` against
the golden snapshot. The explorer's tie-break kernel under the default
fifo policy must produce byte-identical outcomes — same schedule
material, same golden fingerprints — so a fifo trial audits exactly the
production schedule. Only non-default tie-break policies are allowed to
perturb the schedule, and even then only among same-timestamp ties.
"""

import json
import os

import pytest

from repro.bench.fingerprint import fingerprint_material, schedule_fingerprint
from repro.sim.tiebreak import FifoTieBreak, TracedSimulator

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "fingerprints.json")

#: figure6 sweeps clock skew inside the workload and builds its own
#: simulators internally, so it does not accept a factory.
FACTORY_KINDS = ("retwis", "ycsb")


def _golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def _traced_factory():
    return TracedSimulator(tie_break=FifoTieBreak())


class TestSanitizerOnFifoEquivalence:
    @pytest.mark.parametrize("kind", FACTORY_KINDS)
    def test_material_is_byte_identical(self, kind):
        plain = fingerprint_material(kind)
        traced = fingerprint_material(kind,
                                      simulator_factory=_traced_factory)
        assert traced == plain

    @pytest.mark.parametrize("kind", FACTORY_KINDS)
    def test_traced_fingerprint_matches_golden(self, kind):
        traced = schedule_fingerprint(kind,
                                      simulator_factory=_traced_factory)
        assert traced == _golden()[kind]

    def test_figure6_rejects_factory(self):
        with pytest.raises(ValueError, match="figure6"):
            fingerprint_material("figure6", simulator_factory=_traced_factory)
