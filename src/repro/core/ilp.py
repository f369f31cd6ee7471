"""The joint physical/logical NF placement integer program (paper §V-A).

This module turns a :class:`~repro.core.spec.ProblemInstance` into the MILP
of Equations (1)-(12), with two deliberate model reductions that provably do
not change the feasible set:

* **Type-restricted z.**  The paper's ``z_ijkl`` ranges over all types ``i``,
  with constraint (6) (``sum z * i = f_jl * d_jl``) forcing the type to match.
  Because (5) caps ``sum z`` at one, any solution has ``z_ijkl = 0`` for all
  ``i != f_jl``; we therefore only create ``z[l][j][k] := z_{i=f_jl, j, k, l}``
  — an I-fold variable reduction that leaves (6) trivially satisfied.
* **Physical-stage x.**  Constraint (10) forces ``x_ik = x_{i,k+S}``, so we
  create ``x[i][s]`` over the S physical stages only and consult
  ``x[i][(k-1) % S]`` for virtual stage ``k``.

Virtual stages ``k`` are 1-based so the derived ``g_jl = sum_k k*z`` is 0 for
unplaced chains, matching the paper's ``s_l = 0`` convention.

The ceil in the memory constraint (11)/(24) is linearized with an integer
block-count variable ``Y_is`` per (type, physical stage):

    entries_per_block * Y_is >= sum of entries mapped to (i, s),  sum_i Y_is <= B

The paper additionally pins ``Y`` from above (``Y - 1 + eps <= expr``); since
``Y`` only appears in a ``<= B`` constraint, leaving it free upward does not
enlarge the feasible set, and dropping the upper pin avoids the paper's
epsilon hack.  Under the no-consolidation variant (Eq. 25) the ceil applies
per *logical* NF, and since ``z`` is binary, ``ceil(z*F*b/E) = z*ceil(F*b/E)``
is already linear — no auxiliary variables needed.

The recirculation term of the capacity constraint (12) is linearized with an
integer pass count ``P_l >= g_{J_l,l} / S`` (so ``P_l = R_l + 1`` at any
binding optimum, and 0 for unplaced chains).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.placement import NFAssignment, Placement
from repro.core.spec import ProblemInstance
from repro.errors import PlacementError
from repro.lp import Model, Objective, Solution, SolveStatus, Var
from repro.lp import solve as lp_solve
from repro.lp.expr import LinExpr, lin_sum


@dataclass
class PlacementILP:
    """A built placement model plus the variable handles needed to read a
    solution back out.

    ``x[i][s]``  physical NF of type ``i+1`` on physical stage ``s`` (0-based).
    ``z[l][j][k-1]`` chain ``l`` position ``j`` on virtual stage ``k``.
    ``d[l]``     chain placed indicator.
    ``p[l]``     pipeline passes of chain ``l`` (``R_l + 1``; 0 if unplaced).
    ``y[i][s]``  SRAM blocks consumed by type ``i+1`` at stage ``s``
                 (consolidated variant only; ``None`` otherwise).
    """

    instance: ProblemInstance
    consolidate: bool
    model: Model
    x: list[list[Var]]
    z: list[list[list[Var]]]
    d: list[Var]
    p: list[Var]
    y: list[list[Var]] | None

    def extract(self, solution: Solution) -> Placement:
        """Read an integral solution into a :class:`Placement`."""
        if not solution.is_feasible:
            raise PlacementError(
                f"cannot extract placement from status {solution.status.value}"
            )
        inst = self.instance
        physical = np.zeros((inst.num_types, inst.switch.stages), dtype=bool)
        for i in range(inst.num_types):
            for s in range(inst.switch.stages):
                physical[i, s] = solution[self.x[i][s]] > 0.5
        assignments: dict[int, NFAssignment] = {}
        for l, sfc in enumerate(inst.sfcs):
            if solution[self.d[l]] < 0.5:
                continue
            stages = []
            for j in range(sfc.length):
                hits = [
                    k + 1
                    for k, var in enumerate(self.z[l][j])
                    if solution[var] > 0.5
                ]
                if len(hits) != 1:
                    raise PlacementError(
                        f"SFC {l} position {j}: {len(hits)} stages selected "
                        "in an integral solution"
                    )
                stages.append(hits[0])
            assignments[l] = NFAssignment(sfc_index=l, stages=tuple(stages))
        return Placement(
            instance=inst,
            physical=physical,
            assignments=assignments,
            consolidate=self.consolidate,
            solve_seconds=solution.solve_seconds,
            algorithm="ilp",
        )


def build_placement_model(
    instance: ProblemInstance,
    consolidate: bool = True,
    require_all_types: bool = True,
    reserve_physical_block: bool = True,
) -> PlacementILP:
    """Build the joint placement MILP for ``instance``.

    Parameters
    ----------
    consolidate:
        ``True`` -> memory constraint (11)/(24): same-type logical NFs on the
        same physical stage share blocks.  ``False`` -> Eq. (25): each logical
        NF rounds up to whole blocks on its own ("SFP without consolidation",
        the Fig. 6/7 baseline).
    require_all_types:
        Constraint (4): every catalog type must be installed on >= 1 stage.
    reserve_physical_block:
        An installed physical NF reserves at least one block even before any
        tenant rules are copied in (§IV "reserves a piece of switch
        resource").  Only meaningful under consolidation.
    """
    inst = instance
    switch = inst.switch
    I, S, K = inst.num_types, switch.stages, inst.virtual_stages
    L = inst.num_sfcs
    epb = switch.entries_per_block
    max_passes = inst.max_recirculations + 1

    m = Model(f"sfp-placement(L={L},K={K},consolidate={consolidate})")

    # x_ik over physical stages (constraints 2, 10).
    x = [[m.add_var(f"x[{i + 1},{s}]", binary=True) for s in range(S)] for i in range(I)]

    # z over (chain, position, virtual stage) restricted to i = f_jl
    # (constraints 3, 6); d_jl collapsed to one d_l per chain (constraints
    # 5, 7 - all-or-nothing placement).
    d = [m.add_var(f"d[{l}]", binary=True) for l in range(L)]
    z: list[list[list[Var]]] = []
    for l, sfc in enumerate(inst.sfcs):
        chain_vars: list[list[Var]] = []
        for j in range(sfc.length):
            chain_vars.append(
                [m.add_var(f"z[{l},{j},{k + 1}]", binary=True) for k in range(K)]
            )
        z.append(chain_vars)

    # Pass-count variables for the capacity constraint (12).
    p = [
        m.add_var(f"p[{l}]", lb=0, ub=max_passes, integer=True)
        for l in range(L)
    ]

    # --- placement constraints -------------------------------------------
    if require_all_types:
        for i in range(I):
            m.add_constr(lin_sum(x[i]) >= 1, name=f"type_installed[{i + 1}]")

    g: list[list[LinExpr]] = []  # g_jl as expressions
    for l, sfc in enumerate(inst.sfcs):
        g_chain: list[LinExpr] = []
        for j in range(sfc.length):
            # sum_k z = d  (constraints 5+6+7 under the type restriction)
            m.add_constr(lin_sum(z[l][j]) == d[l], name=f"deploy[{l},{j}]")
            g_chain.append(lin_sum((k + 1) * var for k, var in enumerate(z[l][j])))
        g.append(g_chain)
        # Ordering (8): g_{j+1} >= g_j + d_l.
        for j in range(sfc.length - 1):
            m.add_constr(g_chain[j + 1] - g_chain[j] >= d[l], name=f"order[{l},{j}]")

    # --- consistency (9): logical placement needs the physical NF ---------
    for l, sfc in enumerate(inst.sfcs):
        for j in range(sfc.length):
            i = sfc.nf_types[j] - 1
            for k in range(K):
                m.add_constr(
                    z[l][j][k] <= x[i][k % S], name=f"consistency[{l},{j},{k + 1}]"
                )

    # --- memory (11 / 24 with consolidation, 25 without) ------------------
    y: list[list[Var]] | None = None
    if consolidate:
        y = [
            [
                m.add_var(f"y[{i + 1},{s}]", lb=0, ub=switch.blocks_per_stage, integer=True)
                for s in range(S)
            ]
            for i in range(I)
        ]
        # Gather entry loads per (type, physical stage).
        loads: dict[tuple[int, int], list] = {}
        for l, sfc in enumerate(inst.sfcs):
            for j in range(sfc.length):
                i = sfc.nf_types[j] - 1
                F = sfc.rules[j]
                if F == 0:
                    continue
                for k in range(K):
                    loads.setdefault((i, k % S), []).append(F * z[l][j][k])
        for i in range(I):
            for s in range(S):
                terms = loads.get((i, s))
                if terms:
                    m.add_constr(
                        epb * y[i][s] >= lin_sum(terms), name=f"blocks[{i + 1},{s}]"
                    )
                if reserve_physical_block:
                    m.add_constr(y[i][s] >= x[i][s], name=f"reserve[{i + 1},{s}]")
        for s in range(S):
            m.add_constr(
                lin_sum(y[i][s] for i in range(I)) <= switch.blocks_per_stage,
                name=f"stage_blocks[{s}]",
            )
    else:
        # Eq. (25): per-logical-NF whole blocks; linear because z is binary.
        per_stage: dict[int, list] = {s: [] for s in range(S)}
        occupancy: dict[tuple[int, int], list] = {}
        for l, sfc in enumerate(inst.sfcs):
            for j in range(sfc.length):
                i = sfc.nf_types[j] - 1
                nf_blocks = switch.blocks_for_entries(sfc.rules[j])
                for k in range(K):
                    per_stage[k % S].append(nf_blocks * z[l][j][k])
                    occupancy.setdefault((i, k % S), []).append(z[l][j][k])
        if reserve_physical_block:
            # An installed-but-idle physical NF still reserves one block;
            # once a logical NF lands there, its own blocks absorb the
            # reserve: u_is >= x_is - (#logical NFs at (i, s)), u >= 0.
            for i in range(I):
                for s in range(S):
                    u = m.add_var(f"u[{i + 1},{s}]", lb=0.0, ub=1.0)
                    occupants = occupancy.get((i, s))
                    if occupants:
                        m.add_constr(
                            u >= x[i][s] - lin_sum(occupants),
                            name=f"idle_reserve[{i + 1},{s}]",
                        )
                    else:
                        m.add_constr(
                            u >= x[i][s].to_expr(), name=f"idle_reserve[{i + 1},{s}]"
                        )
                    per_stage[s].append(u.to_expr())
        for s in range(S):
            if per_stage[s]:
                m.add_constr(
                    lin_sum(per_stage[s]) <= switch.blocks_per_stage,
                    name=f"stage_blocks[{s}]",
                )

    # --- capacity (12) with pass linearization ----------------------------
    for l, sfc in enumerate(inst.sfcs):
        # P_l >= s_l / S  ->  S * P_l >= g_{J_l, l}
        m.add_constr(S * p[l] >= g[l][sfc.length - 1], name=f"passes[{l}]")
    if L > 0:
        m.add_constr(
            lin_sum(sfc.bandwidth_gbps * p[l] for l, sfc in enumerate(inst.sfcs))
            <= switch.capacity_gbps,
            name="backplane_capacity",
        )

    # --- objective (1) -----------------------------------------------------
    m.set_objective(
        lin_sum(sfc.weight * d[l] for l, sfc in enumerate(inst.sfcs)),
        Objective.MAXIMIZE,
    )

    return PlacementILP(
        instance=inst, consolidate=consolidate, model=m, x=x, z=z, d=d, p=p, y=y
    )


def solve_ilp(
    instance: ProblemInstance,
    consolidate: bool = True,
    time_limit: float | None = None,
    mip_gap: float = 1e-4,
    **build_kwargs,
) -> Placement:
    """Build and solve the joint MILP; return the resulting placement.

    On a time-limited solve the best incumbent is extracted (the paper's
    Fig. 9 early-termination behaviour).  If the solver produces *no*
    feasible point within the limit, an empty placement is returned — the
    paper reports exactly this as "performance is 0" at the 5 s limit.
    """
    start = time.perf_counter()
    ilp = build_placement_model(instance, consolidate=consolidate, **build_kwargs)
    solution = lp_solve(ilp.model, time_limit=time_limit, mip_gap=mip_gap)
    elapsed = time.perf_counter() - start
    if solution.status is SolveStatus.INFEASIBLE:
        raise PlacementError(
            "placement model infeasible — the switch cannot even host the "
            "mandatory physical NFs (check require_all_types / blocks_per_stage)"
        )
    if not solution.is_feasible:
        placement = Placement(
            instance=instance,
            physical=np.zeros((instance.num_types, instance.switch.stages), dtype=bool),
            assignments={},
            consolidate=consolidate,
            algorithm="ilp",
        )
        placement.solve_seconds = elapsed
        return placement
    placement = ilp.extract(solution)
    placement.solve_seconds = elapsed
    return placement
