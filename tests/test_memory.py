"""Library calls free what they build by reference counting.

Each case runs with the cyclic garbage collector disabled, after a full
collection, and must leave nothing for the next ``gc.collect()`` to find.
A nested function that calls itself keeps a closure cell pointing back at
it, so it, its cells and all they hold (an enumeration's whole result
list) form a cycle that reference counting never frees; such garbage piles
up between full collections and raises the peak memory of a run.  The
cases are every acceptance criterion and one call of each library entry
point that the benchmark and the command line use, ``cli.main`` among
them.  ``cli.main`` builds its ``argparse`` parser, which holds reference
cycles, once per process, and its first call also fills caches of the
standard library; so it is measured after one warm call.
"""

import gc
from fractions import Fraction

import pytest

import springerfiber as sf
from springerfiber import acceptance, cli
from springerfiber.eqsmoves import partition_report
from springerfiber.exactlin import fiber_permutations, special_operator
from springerfiber.tableaux import column_superstandard, make_Q


def _coordinate_flag_cells():
    u = sf.jordan_operator(column_superstandard(sf.Partition((3, 2, 2))))
    flag = sf.jordan_flag(sf.Permutation((1, 2, 5, 3, 4, 6, 7)))
    return sf.cell_of(flag, u), sf.cell_prime_of(flag, u), sf.perp_flag(flag, sf.bilinear_form(u))


def _cli_commands():
    cli.main(["flag-cell", "2,2,1", "1,2,5,3,4"])
    cli.main(["--report", "verify-q", "4"])
    cli.main(["dim", "not-a-shape"])


CASES = {
    **{f"criterion-{spec.number}": spec.fn for spec in acceptance.CRITERIA},
    "run_all": acceptance.run_all,
    "eqs_partition": lambda: sf.eqs_partition(sf.Partition((4, 3, 2, 1))),
    "partition_report": lambda: partition_report(sf.Partition((3, 3, 1))),
    "dist_class_invariant": lambda: sf.dist_class_invariant(sf.Partition((4, 4, 1))),
    "eqs_class": lambda: sf.eqs_class(make_Q(4)),
    "c_move": lambda: sf.c_inverse(sf.c_move(sf.parse_tableau("1,2,3/4,5,6/7"))),
    "schuetzenberger": lambda: sf.schuetzenberger(make_Q(5)),
    "enumerate_tableaux": lambda: sf.enumerate_tableaux(sf.Partition((4, 3, 2))),
    "partitions_of": lambda: list(sf.partitions_of(12)),
    "fiber_permutations": lambda: fiber_permutations(special_operator(3)),
    "coordinate_flag_cells": _coordinate_flag_cells,
    "verify_smooth_chart": lambda: sf.verify_smooth_chart(4, 3),
    "certify_322": sf.certify_322,
    "verify_curve_membership": lambda: sf.verify_curve_membership((Fraction(1, 2), 0, 3, -1, 2, 5)),
    "cli.main": _cli_commands,
}

# cases whose first call in a process builds what later calls reuse
WARMED = {"cli.main"}


@pytest.mark.parametrize("case", CASES)
def test_leaves_no_cyclic_garbage(case):
    if case in WARMED:
        CASES[case]()
    gc.collect()
    gc.disable()
    try:
        CASES[case]()
        assert gc.collect() == 0
    finally:
        gc.enable()
