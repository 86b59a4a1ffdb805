"""Experiment drivers reproducing every table and figure of the paper.

Each ``figureN`` / ``tableN`` function runs the required simulations at a
configurable (default: benchmark) scale, prints the same rows/series the
paper reports, and returns the numbers as a dictionary so tests and
benchmarks can assert on the *shape* of the result.  See DESIGN.md
section 5 for the experiment index and EXPERIMENTS.md for paper-vs-measured
records.
"""

from importlib import import_module

#: Public name -> home submodule.  Names resolve on first access (PEP 562),
#: so importing one submodule -- e.g. ``repro.experiments.sweep`` from
#: ``repro.api`` -- does not compile every figure driver.
_HOMES = {
    **dict.fromkeys(
        ["figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
         "figure9", "figure10", "figure11", "figure12", "figure13",
         "figure14", "figure15", "figure16", "figure17", "figure18",
         "figure19", "figure20", "figure21", "table2", "table3",
         "energy_study", "llc_sensitivity", "core_count_sensitivity",
         "ablation_study"], "figures"),
    **dict.fromkeys(["LEARNED_SCHEMES", "learned_study"], "learned"),
    **dict.fromkeys(["frequency_adjusted_speedup", "power_budget_study"],
                    "power_budget"),
    **dict.fromkeys(["BenchScale", "ExperimentRunner"], "runner"),
    **dict.fromkeys(["ResultStore", "RunSpec", "Scheme", "Sweep",
                     "run_sweep"], "sweep"),
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
