"""The benchmark's workloads: each is a short, fixed sequence of `growth`
subcommands, chosen so that one layer of the pipeline does most of the
work.  See README.md for why each workload exists."""

from __future__ import annotations

# Each job takes about 2 s on the reference machine, so that a run holds
# ten or more of them; see README.md for why jobs must be short.
WORKLOADS = {
    # The ROADMAP's headline job at rank 3; the seed spends most of it in
    # ratfun gcd and exact division.
    "matrix": [["matrix", "--type", t, "--format", "json"]
               for t in ("A3", "B3", "C3")],
    # Rank-2 oracle comparison: the enumeration oracle (affine) dominates
    # and gcd does little, so it is the control for ratfun gcd changes.
    "verify": [["verify", "--type", t, "--max-length", "40"]
               for t in ("G2", "B2")],
    # All f_Q of A4: parallelepiped enumeration and inclusion-exclusion
    # (cones) dominate.
    "fq": [["fq", "--type", "A4", "--format", "json"]],
    # Finite identity suites: PolyMatrix products and p_poly scans
    # (finite) dominate; gcd takes well under 1 %.
    "finite": [["finite", "--type", t, "--what", "check"]
               for t in ("D4", "F4")],
}

# The layer that owned the largest share of self time at the seed commit;
# a traced run reports whether it still does.
DOMINANT_LAYER = {"matrix": "ratfun", "verify": "affine", "fq": "cones",
                  "finite": "finite"}

# The spans that do a workload's dominant work.  Each must record at least
# one call in a traced run; zero calls means a binding was left unwrapped.
REQUIRED_SPANS = {
    "matrix": ["cli.main", "ratfun.gcd", "ratfun.exact_div"],
    "verify": ["cli.main", "affine.classify", "affine.bfs"],
    "fq": ["cli.main", "cones.points"],
    "finite": ["cli.main", "finite.matmul", "finite.p_poly", "finite.table"],
}


def job_commands(workload, rng):
    """The workload's commands in the order one job runs them; the order is
    shuffled by `rng` when there is more than one command."""
    cmds = [list(c) for c in WORKLOADS[workload]]
    rng.shuffle(cmds)
    return cmds

