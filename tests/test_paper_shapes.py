"""Paper-shape gate: the figures mean what the paper says they mean.

``tests/test_sweep.py`` pins render digests, which catch a byte that
moved but not whether the figure still says PTP beats NTP. These cases
drive reduced grids of the experiment rows through
:func:`repro.sweep.sweep_experiment` (the rows' own seeds, one process)
and assert the qualitative claims of §5.2-§5.3 at every swept point, so
a kernel-shape or consolidation change cannot bend a figure unnoticed.
The full-size assertions (gain magnitudes, crossovers) stay with the
drivers under ``benchmarks/``; the grids here are sized so the whole
file costs about 30 host-seconds.
"""

import pytest

from repro.sweep import sweep_experiment


@pytest.fixture(scope="module")
def figure6():
    result = sweep_experiment("figure6", duration=0.1, warmup=0.03)
    # rows: [backend, alpha, clients, abort_rate]
    return {(row[0], row[1], row[2]): row[3] for row in result.rows}


@pytest.fixture(scope="module")
def figure7():
    result = sweep_experiment("figure7", num_clients=8, duration=0.1,
                              warmup=0.03)
    # rows: [clock, backend, alpha, abort_rate]
    return {(row[0], row[1], row[2]): row[3] for row in result.rows}


@pytest.fixture(scope="module")
def figure8():
    result = sweep_experiment("figure8", client_counts=(6, 16),
                              num_keys=1500, duration=0.05, warmup=0.02)
    # rows: [backend, mode, clients, txn/s, latency_ms, wire MB/s]
    return {(row[0], row[1], row[2]): (row[3], row[4])
            for row in result.rows}


@pytest.fixture(scope="module")
def figure9():
    result = sweep_experiment("figure9", num_clients=10, num_keys=3000,
                              duration=0.1)
    # rows: [system, alpha, txn/s, lv_fraction, abort_rate]
    return {(row[0], row[1]): row[3] for row in result.rows}


def test_figure6_multiversion_aborts_below_single_version(figure6):
    points = sorted({(alpha, clients) for _, alpha, clients in figure6})
    assert len(points) == 4
    for alpha, clients in points:
        sftl = figure6[("sftl", alpha, clients)]
        mftl = figure6[("mftl", alpha, clients)]
        assert mftl < sftl, (
            f"mftl {mftl} !< sftl {sftl} at alpha={alpha}, "
            f"clients={clients}")


def test_figure7_ptp_at_or_below_ntp_everywhere(figure7):
    points = sorted({(backend, alpha) for _, backend, alpha in figure7})
    assert len(points) == 4
    for backend, alpha in points:
        ptp = figure7[("ptp-sw", backend, alpha)]
        ntp = figure7[("ntp", backend, alpha)]
        assert ptp <= ntp * 1.02, (
            f"PTP {ptp} above NTP {ntp} for {backend}@{alpha}")


def test_figure8_local_validation_raises_throughput_cuts_latency(figure8):
    points = sorted({(backend, clients) for backend, _, clients in figure8})
    assert len(points) == 4
    for backend, clients in points:
        lv_tput, lv_latency = figure8[(backend, "LV", clients)]
        no_tput, no_latency = figure8[(backend, "noLV", clients)]
        assert lv_tput > no_tput, (
            f"LV should raise throughput for {backend}@{clients}: "
            f"{lv_tput} vs {no_tput}")
        assert lv_latency < no_latency, (
            f"LV should cut latency for {backend}@{clients}: "
            f"{lv_latency} vs {no_latency}")


def test_figure9_centiman_local_fraction_falls_milana_stays_one(figure9):
    alphas = sorted({alpha for _, alpha in figure9})
    low, high = alphas[0], alphas[-1]
    assert low < high
    for alpha in alphas:
        assert figure9[("milana", alpha)] == 1.0
    assert figure9[("centiman", high)] < figure9[("centiman", low)], (
        f"Centiman LV fraction should fall with contention: "
        f"{figure9[('centiman', low)]} -> {figure9[('centiman', high)]}")
