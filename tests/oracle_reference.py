"""Sequential exhaustive search, the reference for the oracle's enumeration.

Every genotype of `itertools.product` over the appliances' `SearchSpace.genes`,
as a tuple of genes, scored in chunks by `SearchSpace.evaluate`, and every
feasible one offered to the running optimum one by one, in that order: the
enumeration the oracle used before it listed candidates by index and
skipped those that cannot change its optimum.  `oracle.sweep_penalties`
must match it exactly: total, schedule, ties (same list, same order, the
oracle's read through `SearchSpace.genes_of`) and feasible count.

`slot_rows` decodes a range of the oracle's indices into a slot matrix, as
the enumeration did before it built chunks from gene tables, for tests
that check the tables against the optimizer's own kernels.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from dsmsched.costing import total_cost
from dsmsched.csa import SearchSpace
from dsmsched.oracle import OracleResult, SmallInstance, _Best, _Enumeration


def slot_rows(enumeration: _Enumeration, start: int, stop: int) -> np.ndarray:
    """The `slot_matrix` of the enumeration's genotypes start..stop-1."""
    space = enumeration.space
    rows = np.empty((stop - start, space.width), dtype=np.intp)
    for f, genes, digit in zip(space.flex, enumeration.genes, enumeration._digits(start, stop)):
        rows[:, f.offset:f.offset + f.duration] = genes.slots[digit]
    return rows


def sweep_penalties(
    instance: SmallInstance, penalties: Sequence[float]
) -> dict[float, OracleResult]:
    """Exact optimum at each penalty price, one candidate at a time."""
    ctx = instance.context
    space = SearchSpace(ctx)
    hours = ctx.grid.slot_hours
    bests = {pi: _Best() for pi in penalties}
    count = 0
    genotypes = itertools.product(*(space.genes(i) for i in range(len(space.flex))))
    while batch := list(itertools.islice(genotypes, 256)):
        scores = space.evaluate([space.key(genes) for genes in batch], 0.0)
        for antibody, energy, weighted, shift, feasible in zip(
            batch, scores.energy_usd.tolist(), scores.weighted_shift.tolist(),
            scores.shift_slots.tolist(), scores.feasible.tolist(),
        ):
            if not feasible:
                continue
            count += 1
            for pi, best in bests.items():
                best.offer((energy + hours * pi * weighted, shift, antibody))

    results = {}
    for pi, best in bests.items():
        schedule = space.decode(space.key(best.key[2]))
        results[pi] = OracleResult(
            schedule=schedule,
            breakdown=total_cost(schedule, ctx.with_penalty(pi)),
            ties=best.ties,
            feasible_count=count,
        )
    return results
