#!/usr/bin/env python
"""Self-test for the lint suite: seed one violation per rule, catch all.

CI runs this after the repo gate.  The repo gate proves ``src/repro`` is
clean; this proves the rules still *fire* -- a refactor that silently
disabled a pass would otherwise keep CI green while the gate checks
nothing.  Each fixture is written into a scratch project tree (some
rules are path-sensitive: SIM008 only polices ``sim/hierarchy``, SIM010
exempts ``trace/``) and the full default rule set is run over it; every
rule must report a violation inside its own fixture file.
"""

from __future__ import annotations

import sys
import tempfile
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.lint import run_lint  # noqa: E402

#: rule id -> (project-relative path, violating source).
FIXTURES = {
    "SIM001": ("src/repro/fix_unseeded.py", """
        import random

        def jitter():
            return random.randrange(16)
        """),
    "SIM002": ("src/repro/fix_floatcycle.py", """
        def advance(self, cycle):
            self.ready_at = cycle * 1.5
        """),
    "SIM003": ("src/repro/fix_mutabledefault.py", """
        def collect(item, acc=[]):
            acc.append(item)
            return acc
        """),
    "SIM004": ("src/repro/fix_capture.py", """
        def drain(engine, requests):
            for req in requests:
                engine.schedule(10, lambda: req.complete())
        """),
    "SIM005": ("src/repro/fix_counter.py", """
        class SelftestStats:
            def __init__(self):
                self.packets = 0

        class Router:
            def __init__(self):
                self.stats = SelftestStats()

            def on_packet(self):
                self.stats.packtes += 1
        """),
    "SIM006": ("src/repro/fix_assert.py", """
        def release(entries, line):
            assert line in entries
            return entries.pop(line)
        """),
    "SIM007": ("src/repro/fix_wallclock.py", """
        import time

        def stamp(record):
            record.at = time.time()
        """),
    "SIM008": ("src/repro/sim/hierarchy/fix_bypass.py", """
        class Node:
            def request(self, req, cycle):
                self.engine.schedule(cycle + self.latency, self._done)
        """),
    "SIM009": ("src/repro/fix_nondetiter.py", """
        def drain(engine, requests):
            pending = set(requests)
            for req in pending:
                engine.schedule(1, req)
        """),
    "SIM010": ("src/repro/fix_rng.py", """
        import random

        def inject(engine, seed):
            rng = random.Random(seed)
            engine.schedule(rng.randrange(8), None)
        """),
    "SIM011": ("src/repro/fix_entropy.py", """
        class Tracker:
            def index(self, engine, req):
                self.table[id(req)] = req
                engine.schedule(1, None)
        """),
    "SIM012": ("src/repro/fix_reduction.py", """
        def total(values):
            pool = set(values)
            return sum(pool)
        """),
}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lint-selftest-") as scratch:
        root = Path(scratch)
        for rule_id, (rel_path, source) in FIXTURES.items():
            target = root / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source).lstrip())
        report = run_lint([root / "src"], root=root)
        hits = {}
        for violation in report.violations:
            hits.setdefault(violation.rule_id, set()).add(violation.path)
        failures = []
        for rule_id, (rel_path, _source) in sorted(FIXTURES.items()):
            if rel_path in hits.get(rule_id, ()):
                print(f"ok   {rule_id} fired in {rel_path}")
            else:
                failures.append(rule_id)
                print(f"FAIL {rule_id} did not fire in {rel_path}")
        if failures:
            print(f"\nself-test FAILED: {', '.join(failures)} never "
                  f"fired -- a lint pass has gone silent")
            return 1
        print(f"\nself-test OK: all {len(FIXTURES)} rules fired on "
              f"their fixtures")
        return 0


if __name__ == "__main__":
    sys.exit(main())
