"""Census fixture (PAR001): the sweep's worker pool without
``mp_context=get_context("spawn")``.

Excerpt of ``repro.sweep.runner``. On Linux the pool then forks, and
every cell still computes the same rows, so no gate notices that
workers inherit the parent's interpreter state; only PAR001 does.
"""

from concurrent.futures import ProcessPoolExecutor


def run_parallel(todo, jobs, run_cell):
    executor = ProcessPoolExecutor(
        max_workers=min(jobs, len(todo)))
    try:
        return [executor.submit(run_cell, cell) for cell in todo]
    finally:
        executor.shutdown()
