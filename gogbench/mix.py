"""Measure where the acceptance checks spend their time, by library call.

    python3 gogbench/mix.py            # every check, about ten seconds

Each check in ``gogkit.acceptance`` calls the library through names bound in
that module.  This script wraps those names, so each call the check makes
directly is timed as a whole (its nested library calls count toward it), and
prints, per check, the seconds and share of each function it calls.  Time
the check spends in its own code and in method calls is the ``(own)`` row.

Every target-group table is built before the checks run, as the benchmark's
set-up builds them.  The workloads' rounds take their weights from this
breakdown; README.md records the figures and how each function maps to an
operation kind.
"""
from __future__ import annotations

import inspect
import sys
import time

from run import use_source_tree


class Clock:
    """Seconds per (check, function) of the calls a check makes directly.

    Only the outermost wrapped call is timed, so a helper's nested calls
    count toward the helper.
    """

    def __init__(self):
        self.check = ""
        self.seconds: dict[tuple[str, str], float] = {}
        self.depth = 0

    def add(self, name: str, seconds: float):
        key = (self.check, name)
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            # A generator does its work while it is iterated, not when called.
            def timed_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self.depth += 1
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.depth -= 1
                        if not self.depth:
                            self.add(name, clock() - t0)
                    yield item

            return timed_gen

        def timed(*args, **kwargs):
            self.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if not self.depth:
                    self.add(name, clock() - t0)

        return timed


def measure() -> tuple[dict[str, float], dict[tuple[str, str], float]]:
    """Run every check once with its direct library calls timed."""
    from gogkit import acceptance
    from gogkit.finite_group import make_group
    from gogkit.quotients import default_targets

    clock = Clock()
    for name, value in vars(acceptance).copy().items():
        if inspect.isfunction(value) and value.__module__.startswith("gogkit.") \
                and value.__module__ != "gogkit.acceptance":
            setattr(acceptance, name, clock.wrap(name, value))
    # Helpers in acceptance that only build inputs are timed as one call.
    for name in ("_derivations", "_finite_subgroup_words", "_alternating_words"):
        setattr(acceptance, name, clock.wrap(name, getattr(acceptance, name)))
    # The benchmark builds every target table during set-up, so build them
    # here too, before the checks run: their cost is not the checks' mix.
    default_targets()
    for spec in acceptance.separation_targets():
        make_group(spec)
    totals = {}
    for check, _ in acceptance.CHECKS:
        clock.check = check
        totals[check] = acceptance.run_check(check).seconds
    return totals, clock.seconds


def main():
    use_source_tree()
    totals, seconds = measure()
    for check, total in totals.items():
        rows = sorted(((s, fn) for (c, fn), s in seconds.items() if c == check), reverse=True)
        own = total - sum(s for s, _ in rows)
        print(f"{check}  {total:.3f} s")
        for s, fn in rows + [(own, "(own)")]:
            print(f"  {fn:<34} {s:8.3f} s  {100 * s / total:5.1f}%")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
