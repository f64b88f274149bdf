"""Workload definitions shared by the orchestrator and its workers.

Pure data and string helpers: this module imports neither numpy nor
opcal, so `run.py` can validate arguments and write input files before
any worker starts.
"""

from dataclasses import dataclass

# Every report's master seed is BASE_STRIDE * workload_seed + i: a run
# of consecutive master seeds, one per report, derived from --seed.
BASE_STRIDE = 100_000
# Index of the first traced report's master seed.  The steady loop
# stops before it, so traced reports never repeat a spec the same
# process already ran, and their inputs do not depend on its length.
TRACED_FIRST = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    d: int
    why: str
    checks: int  # checks in one `run_suite(spec, "all")` report
    first_procs: int  # fresh processes that each time one cold report
    traced_reports: int  # reports in the traced phase of --trace 1
    iso_p: float = 0.0  # isotropic weight; > 0 reads phi from a theory file
    negative_controls: tuple = ()  # checks that must not pass
    # Checks that fail on every seed at the commit that added the
    # benchmark.  They count as failed checks (checks_failed_ratio) on
    # every report but do not trip the regression gate.
    known_defects: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="q4-all",
            backend="quantum",
            d=4,
            why="largest desk-scale case (Choi space 256): gns_space and "
            "dim_identities dominate; per-spec context and contractions show here",
            checks=39,
            first_procs=2,
            traced_reports=2,
        ),
        Workload(
            name="q2-seeds",
            backend="quantum",
            d=2,
            why="consecutive seeds at d=2, the CLI default: per-call overhead "
            "and samplers dominate; shows reuse across specs and fixed per-spec cost",
            checks=39,
            first_procs=21,
            traced_reports=20,
        ),
        Workload(
            name="q3-iso",
            backend="quantum",
            d=3,
            why="isotropic phi read by load_theory: the generic least-squares "
            "prepare_witness path and a non-canonical state; gns.cstar fails (3a)",
            checks=39,
            first_procs=5,
            traced_reports=4,
            iso_p=0.2,
            known_defects=("gns.cstar",),  # ROADMAP 3a: gns_norm ignores the Gram metric
        ),
        Workload(
            name="c4-seeds",
            backend="classical",
            d=4,
            why="classical negative control: infodim dominates, faithful and gns "
            "never run; a gns change should not move it",
            checks=22,
            first_procs=21,
            traced_reports=20,
            negative_controls=("table1.D4", "table1.D34", "table1.D34'", "table1.P"),
        ),
    )
}

# Fresh processes per run, or the workload's first_procs if more, that
# time set-up; setup_s is their median.
SETUP_PROCS = 9


def master_seed(workload_seed, i):
    return (BASE_STRIDE * workload_seed + i) % 2**63


def theory_text(w, workload_seed):
    """Theory file for a workload that overrides phi: the isotropic state
    (1-p)|Omega><Omega| + p I/d^2, Omega the maximally entangled vector."""
    n = w.d * w.d
    diag = {i * w.d + i for i in range(w.d)}
    entries = []
    for r in range(n):
        for c in range(n):
            x = (1.0 - w.iso_p) / w.d if r in diag and c in diag else 0.0
            if r == c:
                x += w.iso_p / n
            entries.append(f"{x!r}+0j")
    return (
        f"# {w.name}: isotropic state, p = {w.iso_p}\n"
        f"backend = {w.backend}\n"
        f"d = {w.d}\n"
        f"seed = {master_seed(workload_seed, 0)}\n"
        f"phi = {' '.join(entries)}\n"
    )
